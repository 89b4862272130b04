#include "fixture.h"

#include <atomic>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>

#include "corpus/corpus.h"
#include "lepton/codec.h"
#include "system.h"

namespace perfbench {

namespace fs = std::filesystem;

namespace {

constexpr std::size_t kBandLo = 100u << 10;
constexpr std::size_t kBandHi = 4u << 20;
constexpr int kSubBands = 4;
constexpr int kFilesPerBand = 8;
constexpr std::uint64_t kCorpusSeed = 20170327;  // NSDI '17
constexpr std::uint64_t kClassCheckTag = 0x7e57ull;

bool read_file(const std::string& path, std::vector<std::uint8_t>* out) {
  std::ifstream f(path, std::ios::binary);
  if (!f) return false;
  out->assign(std::istreambuf_iterator<char>(f),
              std::istreambuf_iterator<char>());
  return true;
}

bool write_file(const std::string& path, std::span<const std::uint8_t> bytes,
                std::string* err) {
  std::ofstream f(path, std::ios::binary | std::ios::trunc);
  f.write(reinterpret_cast<const char*>(bytes.data()),
          static_cast<std::streamsize>(bytes.size()));
  if (!f) {
    *err = "cannot write " + path;
    return false;
  }
  return true;
}

bool write_text(const std::string& path, const std::string& text,
                std::string* err) {
  return write_file(
      path, {reinterpret_cast<const std::uint8_t*>(text.data()), text.size()},
      err);
}

int encode_code(std::span<const std::uint8_t> bytes) {
  return static_cast<int>(lepton::encode_jpeg(bytes).code);
}

}  // namespace

bool build_base_corpus(const std::string& dir, std::string* err) {
  if (!make_dirs(dir, err)) return false;
  // Four log-spaced sub-bands of [100 KiB, 4 MiB] built in parallel (the
  // generator binary-searches image dimensions, so large files dominate);
  // the first band also carries one of each anomaly kind.
  std::vector<std::vector<lepton::corpus::CorpusFile>> bands(kSubBands);
  std::vector<std::thread> workers;
  for (int b = 0; b < kSubBands; ++b) {
    workers.emplace_back([b, &bands] {
      const double ratio = static_cast<double>(kBandHi) / kBandLo;
      lepton::corpus::CorpusOptions o;
      o.min_bytes = static_cast<std::size_t>(
          kBandLo * std::pow(ratio, static_cast<double>(b) / kSubBands));
      o.max_bytes = static_cast<std::size_t>(
          kBandLo * std::pow(ratio, static_cast<double>(b + 1) / kSubBands));
      o.valid_files = kFilesPerBand;
      o.include_anomalies = b == 0;
      o.seed = kCorpusSeed + static_cast<std::uint64_t>(b);
      bands[static_cast<std::size_t>(b)] = lepton::corpus::build_corpus(o);
    });
  }
  for (auto& w : workers) w.join();

  std::vector<lepton::corpus::CorpusFile> files;
  for (auto& band : bands) {
    for (auto& f : band) files.push_back(std::move(f));
  }
  // §6.2 class untagged and tagged: the tag is a fixed-length COM payload,
  // so one tagged instance per base file stands for all of them.
  std::vector<int> plain(files.size()), tagged(files.size());
  parallel_for(files.size(), kCallers, [&](std::size_t i) {
    std::vector<std::uint8_t> t;
    tagged_into(files[i].bytes, kClassCheckTag, &t);
    plain[i] = encode_code(files[i].bytes);
    tagged[i] = encode_code(t);
  });
  std::ostringstream manifest;
  for (std::size_t i = 0; i < files.size(); ++i) {
    if (plain[i] != tagged[i]) {
      *err = "COM tag changed the class of " + files[i].label + ": " +
             std::to_string(plain[i]) + " -> " + std::to_string(tagged[i]);
      return false;
    }
    char name[32];
    std::snprintf(name, sizeof name, "file-%03zu.jpg", i);
    if (!write_file(dir + "/" + name, files[i].bytes, err)) return false;
    manifest << i << ' ' << static_cast<int>(files[i].kind) << ' ' << plain[i]
             << ' ' << files[i].bytes.size() << ' ' << files[i].label << '\n';
  }
  return write_text(dir + "/manifest.tsv", manifest.str(), err);
}

bool load_base_corpus(const std::string& dir, BaseCorpus* out,
                      std::string* err) {
  std::ifstream m(dir + "/manifest.tsv");
  if (!m) {
    *err = "no base corpus at " + dir;
    return false;
  }
  std::size_t i = 0, size = 0;
  int kind = 0, code = 0;
  std::string label;
  while (m >> i >> kind >> code >> size >> label) {
    char name[32];
    std::snprintf(name, sizeof name, "file-%03zu.jpg", i);
    std::vector<std::uint8_t> bytes;
    if (i != out->files.size() || !read_file(dir + "/" + name, &bytes) ||
        bytes.size() != size || kind < 0 ||
        kind >= static_cast<int>(FileClass::kCount)) {
      *err = "base corpus entry " + std::to_string(i) + " is damaged";
      return false;
    }
    out->files.push_back(std::move(bytes));
    out->classes.push_back(static_cast<FileClass>(kind));
    out->codes.push_back(code);
  }
  if (out->files.empty()) {
    *err = "empty base corpus at " + dir;
    return false;
  }
  return true;
}

// Sized against the store's own decode-cache budget.
std::uint64_t cache_budget() {
  return lepton::storage::ShardedStoreConfig{}.decode_cache_bytes;
}

PopulationSpec serve_population_spec() {
  return {"serve", 0x5e7e5e7eull, 8 * cache_budget(), 0};
}

PopulationSpec hot_population_spec() {
  return {"hot", 0x407407ull, 0, cache_budget() / 2};
}

Population draw_population(const BaseCorpus& corpus, const Deck& deck,
                           const PopulationSpec& spec) {
  std::vector<PopEntry> drawn;
  std::uint64_t bytes = 0;
  for (std::uint64_t i = 0;; ++i) {
    const std::uint32_t base = deck.draw(spec.seed, i);
    const std::uint64_t size = corpus.files[base].size() + kTagBytes;
    if (spec.max_bytes != 0 && bytes + size > spec.max_bytes) break;
    PopEntry e;
    e.key = spec.name + "-" + std::to_string(i);
    e.base = base;
    e.tag = draw64(spec.seed, i) | 1;
    drawn.push_back(std::move(e));
    bytes += size;
    if (spec.min_bytes != 0 && bytes >= spec.min_bytes) break;
  }
  // Hotness: a seeded permutation, independent of file size.
  Population pop;
  pop.decoded_bytes = bytes;
  for (std::uint32_t ix : permutation(drawn.size(), ~spec.seed)) {
    pop.by_rank.push_back(drawn[ix]);
  }
  return pop;
}

bool build_population(const BaseCorpus& corpus, const PopulationSpec& spec,
                      const std::string& dir, const std::string& leptond,
                      std::string* err) {
  remove_tree(dir);
  if (!make_dirs(dir + "/store", err)) return false;
  Population pop = draw_population(corpus, Deck(corpus.classes), spec);
  Daemon daemon;
  if (!daemon.start(leptond, dir + "/d.sock", dir + "/leptond.log", err)) {
    return false;
  }
  auto store = open_store(dir + "/store", daemon.endpoint(), err);
  if (store == nullptr) return false;
  std::atomic<bool> ok{true};
  parallel_for(pop.by_rank.size(), kCallers, [&](std::size_t i) {
    const PopEntry e = pop.by_rank[i];
    std::vector<std::uint8_t> bytes;
    tagged_into(corpus.files[e.base], e.tag, &bytes);
    if (!store->put(e.key, bytes).durable.acknowledged) ok = false;
  });
  if (!ok) {
    *err = "population put not acknowledged";
    return false;
  }
  parallel_for(pop.by_rank.size(), kCallers, [&](std::size_t i) {
    const PopEntry& e = pop.by_rank[i];
    lepton::Result r;
    if (!store->get(e.key, &r) || !r.ok() ||
        !equals_tagged(r.data, corpus.files[e.base], e.tag)) {
      ok = false;
    }
  });
  if (!ok) {
    *err = "population key did not read back byte-identical";
    return false;
  }
  if (!store->sync()) {
    *err = "population sync failed";
    return false;
  }
  store.reset();
  daemon.stop();
  std::ostringstream m;
  for (const PopEntry& e : pop.by_rank) {
    m << e.key << ' ' << e.base << ' ' << e.tag << '\n';
  }
  return write_text(dir + "/manifest.tsv", m.str(), err);
}

bool load_population(const std::string& dir, Population* out,
                     std::string* err) {
  std::ifstream m(dir + "/manifest.tsv");
  if (!m) {
    *err = "no population at " + dir;
    return false;
  }
  PopEntry e;
  while (m >> e.key >> e.base >> e.tag) out->by_rank.push_back(e);
  if (out->by_rank.empty()) {
    *err = "empty population at " + dir;
    return false;
  }
  return true;
}

bool clone_root(const std::string& from, const std::string& to,
                std::string* err) {
  remove_tree(to);
  std::error_code ec;
  fs::create_directories(to, ec);
  for (auto it = fs::recursive_directory_iterator(from, ec);
       !ec && it != fs::recursive_directory_iterator(); it.increment(ec)) {
    const fs::path rel = fs::relative(it->path(), from);
    const fs::path dst = fs::path(to) / rel;
    if (it->is_directory()) {
      fs::create_directories(dst, ec);
    } else if (rel.string().find("/objects/") != std::string::npos) {
      fs::create_hard_link(it->path(), dst, ec);
    } else {
      fs::copy_file(it->path(), dst, ec);
    }
    if (ec) break;
  }
  if (ec) {
    *err = "cannot clone " + from + " to " + to + ": " + ec.message();
    return false;
  }
  return true;
}

}  // namespace perfbench
