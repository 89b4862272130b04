// blockbench — the blockserver benchmark.
//
// The benchmark plays the blockserver against the real system: a `leptond`
// child on a unix socket, a 4-shard storage::ShardedStore (its defaults:
// FsyncMode::kBatch, 64 MiB decode cache) and one FleetClient per shard
// pointing at that daemon. Requests are the top-level public calls:
//   put = ShardedStore::put(key, bytes)   served encode via FleetClient ->
//         leptond, §5.7 admit_converted round trip, durable commit;
//   get = ShardedStore::get(key)          decode cache, durable read, decode.
//
//   blockbench prep      build the cached inputs that are missing
//   blockbench run       --workload backfill|serve|hot_reads --seed N
//                        --seconds S --trace 0|1
//   blockbench calibrate serve's mix closed-loop at saturation (ops/s)
//   blockbench metrics   --trace 0|1: the metric names and units it prints
//
// perfbench/run.py builds this, prepares the inputs and validates the
// output; NOTES.md explains the workloads, the metrics and the traced run.
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <numeric>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "benchlib.h"
#include "fixture.h"
#include "jpeg/parser.h"
#include "jpeg/scan_decoder.h"
#include "lepton/codec.h"
#include "lepton/context.h"
#include "lepton/store.h"
#include "storage/fleet_client.h"
#include "storage/sharded_store.h"
#include "system.h"

namespace pb = perfbench;
using lepton::storage::ShardedStore;
using Clock = std::chrono::steady_clock;

namespace {

// ---- configuration -----------------------------------------------------------

// serve's fixed arrival rate: about half the op rate its mix sustains at
// saturation (`blockbench calibrate`) on the commit that defined the
// benchmark. Recorded in BENCHMARK.json's workload reason too.
constexpr double kServeRate = 8.5;       // ops/s
constexpr double kGetsPerPut = 1.5;      // §5.4 weekday ratio
constexpr double kZipfS = 0.99;
constexpr std::uint64_t kWarmStream = 0x7761726dull;  // "warm"
constexpr int kCodecSample = 6;          // files in the traced codec pass
constexpr int kCodecReps = 2;

enum class Workload { kBackfill, kServe, kHotReads };

// Set-ups per untraced run; setup_s is their median. backfill's set-up is a
// few fsyncs and four small served puts (~0.3 s) and jumps with each, so it
// is repeated more; the others read tens of MB and vary less.
int setup_reps(Workload w) { return w == Workload::kBackfill ? 7 : 3; }

const char* workload_name(Workload w) {
  switch (w) {
    case Workload::kBackfill: return "backfill";
    case Workload::kServe: return "serve";
    case Workload::kHotReads: return "hot_reads";
  }
  return "?";
}

std::optional<Workload> parse_workload(const std::string& s) {
  for (Workload w : {Workload::kBackfill, Workload::kServe, Workload::kHotReads}) {
    if (s == workload_name(w)) return w;
  }
  return std::nullopt;
}

struct MetricDef {
  const char* name;
  const char* unit;
};

// Printed with --trace 0 (every workload).
constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},
    {"user_MBps", "MB/s"},
    {"service_mean_ms", "ms"},
    {"cpu_s_per_MB", "s/MB"},
    {"peak_rss_MB", "MB"},
    {"compression_ratio", "ratio"},
};

// Printed with --trace 1 (every workload; 0 where the layer does no work).
constexpr MetricDef kPerLayer[] = {
    {"jpeg.scan_decode_ms_per_MB", "ms/MB"},
    {"jpeg.scan_share_of_encode", "ratio"},
    {"lepton.encode_ms_per_MB", "ms/MB"},
    {"lepton.encode_cpu_per_wall", "ratio"},
    {"lepton.decode_ms_per_MB", "ms/MB"},
    {"lepton.decode_cpu_per_wall", "ratio"},
    {"lepton.segments_per_file", "count"},
    {"lepton.verify_ms_p50", "ms"},
    {"lepton.verify_ms_p90", "ms"},
    {"lepton.admit_ratio", "ratio"},
    {"storage.passthrough_ratio", "ratio"},
    {"storage.fleet_convert_ms_p50", "ms"},
    {"storage.fleet_convert_ms_p90", "ms"},
    {"storage.fleet_attempts_per_convert", "count"},
    {"storage.fleet_first_timeout_ratio", "ratio"},
    {"storage.commit_ms_p50", "ms"},
    {"storage.commit_ms_p90", "ms"},
    {"storage.put_self_ms_p50", "ms"},
    {"storage.get_hit_ms_p50", "ms"},
    {"storage.get_hit_ms_p99", "ms"},
    {"storage.get_miss_ms_p50", "ms"},
    {"storage.get_miss_ms_p90", "ms"},
    {"storage.cache_hit_ratio", "ratio"},
    {"storage.cache_evictions", "count"},
    {"leptond.request_ms_p50", "ms"},
    {"leptond.request_ms_p99", "ms"},
    {"leptond.in_flight_peak", "count"},
    {"leptond.timeout_trailers", "count"},
    {"leptond.cpu_s_per_MB", "s/MB"},
    {"leptond.threads", "count"},
    {"leptond.rss_peak_MB", "MB"},
    {"bench.generator_late_ms_p99", "ms"},
    {"bench.traced_over_untraced_put_p50", "ratio"},
    {"bench.traced_over_untraced_get_p50", "ratio"},
};

struct Args {
  std::string mode;
  Workload workload = Workload::kBackfill;
  std::uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  std::string cache = ".perfbench/cache";
  std::string work = ".perfbench/run";
  std::string spans = ".perfbench/trace";
  std::string leptond = LEPTOND_PATH;
};

double seconds_since(Clock::time_point t0, Clock::time_point t1) {
  return std::chrono::duration<double>(t1 - t0).count();
}

std::int64_t ns_since(Clock::time_point t0, Clock::time_point t1) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0).count();
}

double process_cpu_s() {
  timespec ts{};
  ::clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

std::string hex16(std::uint64_t v) {
  char b[17];
  std::snprintf(b, sizeof b, "%016llx", static_cast<unsigned long long>(v));
  return b;
}

// ---- inputs of one run ---------------------------------------------------------

struct Inputs {
  pb::BaseCorpus corpus;
  std::unique_ptr<pb::Deck> deck;
  pb::Population pop;            // empty for backfill
  std::string pop_root;          // starting state ("" = empty store)
  std::unique_ptr<pb::Zipf> zipf;
};

// ---- per-op records ------------------------------------------------------------

// Compact (32 bytes): hot_reads records over half a million per run.
struct OpRecord {
  float lat_s = 0;           // from the due time (closed loop: send time)
  float late_s = 0;          // send time - due time (open loop)
  float due_s = 0;           // due time, from the start of the phase
  std::uint32_t bytes = 0;   // user bytes (put input / get output)
  std::uint32_t stored = 0;  // put: payload bytes on disk
  std::uint32_t base = 0;    // base-corpus file
  std::uint32_t rank = 0;    // get: population rank
  pb::OpType type = pb::OpType::kGet;
  bool ok = false;
  bool hit = false;          // get served from the decode cache
  bool passthrough = false;  // put stored pass-through
};

// Records each caller can hold without growing during a closed-loop phase,
// per measured second (~2x hot_reads' rate on a 4-vCPU Xeon). The buffers
// are touched before the phase, so the benchmark's own memory — part of
// peak_rss_MB — does not grow with the throughput it measures.
constexpr std::size_t kRecordsPerCallerSecond = 20000;

struct Acked {
  std::string key;
  std::uint32_t base;
  std::uint64_t tag;
};

// Spans of the traced run, by name index.
enum SpanName : std::uint16_t {
  kSpanPut,
  kSpanConvert,
  kSpanAdmit,
  kSpanPassthrough,
  kSpanPutObject,
  kSpanGet,
  kSpanNames
};
constexpr const char* kSpanNameText[kSpanNames] = {
    "ShardedStore::put",
    "FleetClient::convert",
    "TransparentStore::admit_converted",
    "TransparentStore::put_passthrough",
    "ShardedStore::put_object",
    "ShardedStore::get",
};
constexpr std::uint8_t kFlagHit = 1;          // get: cache hit
constexpr std::uint8_t kFlagFirstTimeout = 2;  // convert: attempt 1 kTimeout

struct ConvertFact {
  int attempts = 0;
  bool first_timeout = false;
};

// Everything one caller thread records (merged after the phase).
struct CallerLog {
  std::vector<OpRecord> ops;
  std::vector<Acked> acked;
  std::vector<pb::Span> spans;
  std::vector<ConvertFact> converts;
  lepton::Result got;  // the last get's output
  bool mismatch = false;
  std::string mismatch_what;
};

// ---- the system instance of one phase ------------------------------------------

class Instance {
 public:
  Instance(const Args& args, Inputs& in, std::string dir)
      : args_(args), in_(in), dir_(std::move(dir)) {}
  ~Instance() {
    store_.reset();
    daemon_.stop();
    pb::remove_tree(dir_);
  }

  // Daemon spawn -> first PING ok, ShardedStore::open over the starting
  // state (recovery included), warm-up. The clone of the starting root is
  // input preparation and is not timed.
  bool setup(int rep, double* setup_s, std::string* err) {
    pb::remove_tree(dir_);
    if (!pb::make_dirs(dir_, err)) return false;
    if (in_.pop_root.empty()) {
      if (!pb::make_dirs(dir_ + "/store", err)) return false;
    } else if (!pb::clone_root(in_.pop_root, dir_ + "/store", err)) {
      return false;
    }
    const auto t0 = Clock::now();
    if (!daemon_.start(args_.leptond, dir_ + "/d.sock", dir_ + "/leptond.log",
                       err)) {
      return false;
    }
    const auto t1 = Clock::now();
    store_ = pb::open_store(dir_ + "/store", daemon_.endpoint(), err);
    if (store_ == nullptr) return false;
    const auto t2 = Clock::now();
    if (!warm_up(rep, err)) return false;
    const auto t3 = Clock::now();
    *setup_s = seconds_since(t0, t3);
    std::printf("setup  rep %d: %.3f s = daemon to PING %.3f + open %.3f + warm-up %.3f\n",
                rep, *setup_s, seconds_since(t0, t1), seconds_since(t1, t2),
                seconds_since(t2, t3));
    return true;
  }

  ShardedStore& store() { return *store_; }
  pb::Daemon& daemon() { return daemon_; }

  // Closes the store and reads the payload bytes on disk behind each
  // population key from the shard roots this instance opened.
  bool close_and_size(std::vector<std::uint64_t>* sizes, std::string* err) {
    store_.reset();
    std::vector<std::string> keys;
    for (const pb::PopEntry& e : in_.pop.by_rank) keys.push_back(e.key);
    return pb::stored_bytes(dir_ + "/store", keys, sizes, err);
  }
  std::vector<Acked>& warm_acked() { return warm_acked_; }

 private:
  bool warm_up(int rep, std::string* err) {
    // Puts (backfill, serve): one per caller of the smallest baseline files,
    // fresh keys, so the daemon's workers and the commit path have run once.
    if (args_.workload != Workload::kHotReads) {
      std::vector<std::uint32_t> small;
      for (std::uint32_t f = 0; f < in_.corpus.files.size(); ++f) {
        if (in_.corpus.classes[f] == pb::FileClass::kBaseline) small.push_back(f);
      }
      std::sort(small.begin(), small.end(), [&](std::uint32_t a, std::uint32_t b) {
        return in_.corpus.files[a].size() < in_.corpus.files[b].size();
      });
      small.resize(std::min<std::size_t>(small.size(), pb::kCallers));
      std::mutex mu;
      bool ok = true;
      pb::parallel_for(small.size(), pb::kCallers, [&](std::size_t c) {
        const std::uint64_t tag = pb::put_tag(
            args_.seed ^ kWarmStream ^ static_cast<std::uint64_t>(rep), c);
        std::vector<std::uint8_t> bytes;
        pb::tagged_into(in_.corpus.files[small[c]], tag, &bytes);
        const std::string key = "warm-" + hex16(tag);
        bool acked = store_->put(key, bytes).durable.acknowledged;
        std::lock_guard<std::mutex> lk(mu);
        ok = ok && acked;
        warm_acked_.push_back({key, small[c], tag});
      });
      if (!ok) {
        *err = "warm-up put not acknowledged";
        return false;
      }
    }
    // Gets: hot_reads reads its whole population once (filling the cache);
    // serve reads from the hottest rank down until the decoded bytes reach
    // the cache budget.
    std::size_t n = 0;
    if (args_.workload == Workload::kHotReads) {
      n = in_.pop.by_rank.size();
    } else if (args_.workload == Workload::kServe) {
      std::uint64_t bytes = 0;
      while (n < in_.pop.by_rank.size() && bytes < pb::cache_budget()) {
        bytes += in_.corpus.files[in_.pop.by_rank[n].base].size();
        ++n;
      }
    }
    std::atomic<bool> ok{true};
    pb::parallel_for(n, pb::kCallers, [&](std::size_t r) {
      const pb::PopEntry& e = in_.pop.by_rank[r];
      lepton::Result res;
      if (!store_->get(e.key, &res) || !res.ok() ||
          !pb::equals_tagged(res.data, in_.corpus.files[e.base], e.tag)) {
        ok = false;
      }
    });
    if (!ok) {
      *err = "warm-up get did not return the original bytes";
      return false;
    }
    return true;
  }

  const Args& args_;
  Inputs& in_;
  std::string dir_;
  pb::Daemon daemon_;
  std::unique_ptr<ShardedStore> store_;
  std::vector<Acked> warm_acked_;
};

// ---- one measured phase ----------------------------------------------------------

struct Tracer {
  std::vector<std::unique_ptr<lepton::storage::FleetClient>> fleets;
  lepton::TransparentStore codec{lepton::storage::ShardedStoreConfig{}.encode};
};

struct Phase {
  std::vector<OpRecord> ops;
  std::vector<Acked> acked;
  std::vector<pb::Span> spans;
  std::vector<ConvertFact> converts;
  double wall_s = 0;
  double bench_cpu_s = 0;
  double daemon_cpu_s = 0;
  double hwm_mb = 0;  // VmHWM of both processes, read as the phase ends
  double steal_share = 0;  // of the machine's CPU time, over the phase
  lepton::storage::DecodeCacheStats cache_before, cache_after;
  bool mismatch = false;
  std::string mismatch_what;
};

class Runner {
 public:
  Runner(const Args& args, Inputs& in, Instance& inst, Tracer* tracer)
      : args_(args), in_(in), inst_(inst), tracer_(tracer) {}

  Phase run() {
    Phase ph;
    const bool open_loop = args_.workload == Workload::kServe;
    std::vector<pb::Op> schedule;
    if (open_loop) {
      schedule = pb::open_loop_schedule(*in_.deck, *in_.zipf, args_.seed,
                                        kServeRate, args_.seconds,
                                        1.0 / (1.0 + kGetsPerPut));
    }
    std::vector<CallerLog> logs(pb::kCallers);
    const std::size_t capacity =
        open_loop ? schedule.size()
                  : static_cast<std::size_t>(kRecordsPerCallerSecond * args_.seconds);
    for (auto& l : logs) {
      l.ops.resize(capacity);  // touch the pages now
      l.ops.clear();
    }
    std::atomic<std::uint64_t> next{0};
    ph.cache_before = inst_.store().stats().cache;
    const double cpu0 = pb::sample_proc(0).cpu_s;
    const double dcpu0 = pb::sample_proc(inst_.daemon().pid()).cpu_s;
    const pb::HostTicks host0 = pb::sample_host();
    start_ = Clock::now();
    const auto deadline =
        start_ + std::chrono::duration_cast<Clock::duration>(
                     std::chrono::duration<double>(args_.seconds));
    std::vector<std::thread> callers;
    std::vector<Clock::time_point> ends(pb::kCallers, start_);
    for (int c = 0; c < pb::kCallers; ++c) {
      callers.emplace_back([&, c] {
        CallerLog& log = logs[static_cast<std::size_t>(c)];
        std::vector<std::uint8_t> buf;
        for (;;) {
          const std::uint64_t i = next++;
          pb::Op op;
          Clock::time_point due;
          if (open_loop) {
            if (i >= schedule.size()) break;
            op = schedule[i];
            due = start_ + std::chrono::duration_cast<Clock::duration>(
                               std::chrono::duration<double>(op.due_s));
          } else {
            if (Clock::now() >= deadline) break;
            op = args_.workload == Workload::kBackfill
                     ? pb::put_op(*in_.deck, args_.seed, i)
                     : pb::get_op(*in_.zipf, args_.seed, i);
          }
          if (op.type == pb::OpType::kPut) {
            pb::tagged_into(in_.corpus.files[op.target], op.tag, &buf);
          }
          if (open_loop) std::this_thread::sleep_until(due);
          const auto sent = Clock::now();
          if (!open_loop) due = sent;
          OpRecord rec = execute(op, i, buf, &log);
          const auto done = Clock::now();
          rec.lat_s = static_cast<float>(seconds_since(due, done));
          rec.late_s = static_cast<float>(seconds_since(due, sent));
          rec.due_s = static_cast<float>(seconds_since(start_, due));
          ends[static_cast<std::size_t>(c)] = done;
          log.ops.push_back(rec);
          if (rec.type == pb::OpType::kGet && rec.ok) check_get(op, &log);
          if (log.mismatch) break;
        }
      });
    }
    for (auto& t : callers) t.join();
    ph.wall_s = seconds_since(start_, *std::max_element(ends.begin(), ends.end()));
    // Read before the records are merged and summarized, so the peak is
    // the system's and the set-ups', not the benchmark's post-processing.
    const pb::ProcSample self = pb::sample_proc(0);
    const pb::ProcSample daemon = pb::sample_proc(inst_.daemon().pid());
    ph.bench_cpu_s = self.cpu_s - cpu0;
    ph.daemon_cpu_s = daemon.cpu_s - dcpu0;
    ph.hwm_mb = self.hwm_mb + daemon.hwm_mb;
    const pb::HostTicks host1 = pb::sample_host();
    if (host1.total > host0.total) {
      ph.steal_share = (host1.steal - host0.steal) / (host1.total - host0.total);
    }
    ph.cache_after = inst_.store().stats().cache;
    for (auto& l : logs) {
      ph.ops.insert(ph.ops.end(), l.ops.begin(), l.ops.end());
      ph.acked.insert(ph.acked.end(), l.acked.begin(), l.acked.end());
      ph.spans.insert(ph.spans.end(), l.spans.begin(), l.spans.end());
      ph.converts.insert(ph.converts.end(), l.converts.begin(), l.converts.end());
      if (l.mismatch && !ph.mismatch) {
        ph.mismatch = true;
        ph.mismatch_what = l.mismatch_what;
      }
    }
    return ph;
  }

 private:
  std::int64_t now_ns() const { return ns_since(start_, Clock::now()); }

  OpRecord execute(const pb::Op& op, std::uint64_t i,
                   const std::vector<std::uint8_t>& input, CallerLog* log) {
    OpRecord rec;
    rec.type = op.type;
    if (op.type == pb::OpType::kPut) {
      const std::string key = "put-" + hex16(op.tag);
      rec.base = op.target;
      rec.bytes = static_cast<std::uint32_t>(input.size());
      lepton::storage::ShardedPutStats ps =
          tracer_ ? traced_put(key, input, i, log) : inst_.store().put(key, input);
      rec.ok = ps.durable.acknowledged;
      rec.stored = static_cast<std::uint32_t>(ps.durable.bytes_stored);
      rec.passthrough = ps.passthrough;
      if (rec.ok) log->acked.push_back({key, op.target, op.tag});
      return rec;
    }
    const pb::PopEntry& e = in_.pop.by_rank[op.target];
    rec.base = e.base;
    rec.rank = op.target;
    lepton::storage::ShardedGetStats gs;
    pb::Span span;
    span.name = kSpanGet;
    span.request = i;
    span.start_ns = now_ns();
    bool found = inst_.store().get(e.key, &log->got, &gs);
    span.end_ns = now_ns();
    span.flag = gs.cache_hit ? kFlagHit : 0;
    if (tracer_) log->spans.push_back(span);
    if (!found) {
      // A population key is acknowledged: "not found" is a lost key.
      log->mismatch = true;
      log->mismatch_what = "population key " + e.key + " not found";
      return rec;
    }
    rec.ok = log->got.ok();
    rec.hit = gs.cache_hit;
    rec.bytes = rec.ok ? static_cast<std::uint32_t>(log->got.data.size()) : 0;
    return rec;
  }

  // The put chain ShardedStore::put makes for a fleet shard, made call by
  // call so each layer gets its own span.
  lepton::storage::ShardedPutStats traced_put(
      const std::string& key, const std::vector<std::uint8_t>& input,
      std::uint64_t i, CallerLog* log) {
    using lepton::util::ExitCode;
    const int sid = inst_.store().shard_of(key);
    auto& fleet = *tracer_->fleets[static_cast<std::size_t>(sid)];
    const std::size_t base = log->spans.size();
    auto open = [&](SpanName name, std::int32_t parent) {
      pb::Span s;
      s.name = name;
      s.parent = parent;
      s.request = i;
      s.start_ns = now_ns();
      log->spans.push_back(s);
      return static_cast<std::int32_t>(log->spans.size() - 1 - base);
    };
    auto close = [&](std::int32_t ix) {
      log->spans[base + static_cast<std::size_t>(ix)].end_ns = now_ns();
    };
    const std::int32_t req = open(kSpanPut, -1);
    std::int32_t s = open(kSpanConvert, req);
    lepton::storage::RequestTrace tr =
        fleet.convert(lepton::storage::FleetOp::kEncode, input);
    close(s);
    const bool first_timeout = tr.first_code == ExitCode::kTimeout;
    if (first_timeout) log->spans[base + static_cast<std::size_t>(s)].flag = kFlagFirstTimeout;
    log->converts.push_back({tr.attempts, first_timeout});
    lepton::StoredObject obj;
    bool admitted = false;
    if (tr.final_code == ExitCode::kSuccess) {
      s = open(kSpanAdmit, req);
      admitted = tracer_->codec.admit_converted(input, std::move(tr.data), &obj);
      close(s);
    }
    if (!admitted) {
      s = open(kSpanPassthrough, req);
      obj = tracer_->codec.put_passthrough(input);
      close(s);
    }
    s = open(kSpanPutObject, req);
    lepton::storage::ShardedPutStats ps = inst_.store().put_object(key, obj);
    close(s);
    close(req);
    ps.remote_converted = admitted;
    ps.passthrough = !admitted;
    return ps;
  }

  void check_get(const pb::Op& op, CallerLog* log) {
    const pb::PopEntry& e = in_.pop.by_rank[op.target];
    if (!pb::equals_tagged(log->got.data, in_.corpus.files[e.base], e.tag)) {
      log->mismatch = true;
      log->mismatch_what = "get of " + e.key + " returned wrong bytes";
    }
  }

  const Args& args_;
  Inputs& in_;
  Instance& inst_;
  Tracer* tracer_;
  Clock::time_point start_;
};

// Reads back every acknowledged put: a mismatch or a missing key voids the run.
bool read_back(ShardedStore& store, const Inputs& in,
               const std::vector<Acked>& acked, std::string* what) {
  std::mutex mu;
  bool ok = true;
  pb::parallel_for(acked.size(), pb::kCallers, [&](std::size_t i) {
    const Acked& a = acked[i];
    lepton::Result r;
    if (!store.get(a.key, &r) || !r.ok() ||
        !pb::equals_tagged(r.data, in.corpus.files[a.base], a.tag)) {
      std::lock_guard<std::mutex> lk(mu);
      ok = false;
      *what = "acknowledged put " + a.key + " did not read back";
    }
  });
  return ok;
}

// ---- metrics -----------------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  std::size_t n = 0;      // samples behind it
  std::string note;       // percentile support etc.
};

// Latencies (s, sorted) from the due time, or with `from_send` from the
// moment a caller sent the op (the same in a closed loop).
std::vector<double> latencies(const std::vector<OpRecord>& ops,
                              std::optional<pb::OpType> type, double fail_s,
                              bool from_send = false) {
  std::vector<double> v;
  for (const OpRecord& r : ops) {
    if (type && r.type != *type) continue;
    // A failed op counts as beyond every latency percentile.
    v.push_back(!r.ok ? fail_s : from_send ? r.lat_s - r.late_s : r.lat_s);
  }
  std::sort(v.begin(), v.end());
  return v;
}

Metric pct_metric(const std::string& name, const std::vector<double>& sorted_s,
                  double p) {
  Metric m{name, 1e3 * pb::percentile_sorted(sorted_s, p), "ms", sorted_s.size(), ""};
  const std::size_t beyond = pb::samples_beyond(sorted_s.size(), p);
  if (beyond < pb::kMinBeyond) {
    pb::PercentilePick pick = pb::pick_percentile(sorted_s.size(), p);
    char note[160];
    std::snprintf(note, sizeof note,
                  "only %zu beyond p%g; highest supported: p%g = %.3f ms",
                  beyond, p, pick.p,
                  1e3 * pb::percentile_sorted(sorted_s, pick.p));
    m.note = note;
  }
  return m;
}

// The highest percentile (up to `want`) with >= 10 samples beyond it.
Metric tail_metric(const std::string& stem, const std::vector<double>& sorted_s,
                   double want) {
  pb::PercentilePick pick = pb::pick_percentile(sorted_s.size(), want);
  char name[64];
  std::snprintf(name, sizeof name, "%s_p%g_ms", stem.c_str(), pick.p);
  Metric m = pct_metric(name, sorted_s, pick.p);
  char note[64];
  std::snprintf(note, sizeof note, "%zu beyond", pick.beyond);
  if (m.note.empty()) m.note = note;
  return m;
}

struct PhaseSummary {
  std::uint64_t attempted = 0, failed = 0;
  std::uint64_t put_bytes = 0, get_bytes = 0, stored = 0, stored_base = 0;
  std::vector<double> all, service, puts, gets, late;
};

// `pop_stored`: payload bytes on disk of each population key, by rank.
PhaseSummary summarize(const Phase& ph, const std::vector<std::uint64_t>& pop_stored) {
  PhaseSummary s;
  for (const OpRecord& r : ph.ops) {
    ++s.attempted;
    if (!r.ok) {
      ++s.failed;
      continue;
    }
    if (r.type == pb::OpType::kPut) {
      s.put_bytes += r.bytes;
      s.stored += r.stored;
      s.stored_base += r.bytes;
    } else {
      s.get_bytes += r.bytes;
    }
    s.late.push_back(r.late_s);
  }
  if (s.put_bytes == 0) {
    // No puts: the storage cost of the bytes read.
    for (const OpRecord& r : ph.ops) {
      if (r.ok && r.type == pb::OpType::kGet) {
        s.stored += pop_stored[r.rank];
        s.stored_base += r.bytes;
      }
    }
  }
  s.all = latencies(ph.ops, std::nullopt, ph.wall_s);
  s.service = latencies(ph.ops, std::nullopt, ph.wall_s, true);
  s.puts = latencies(ph.ops, pb::OpType::kPut, ph.wall_s);
  s.gets = latencies(ph.ops, pb::OpType::kGet, ph.wall_s);
  std::sort(s.late.begin(), s.late.end());
  return s;
}

double user_mb(const PhaseSummary& s) {
  return static_cast<double>(s.put_bytes + s.get_bytes) / 1e6;
}

void print_metric(const char* tag, const Metric& m) {
  std::printf("%-6s %-36s %14.6g %-6s n=%-7zu %s\n", tag, m.name.c_str(),
              m.value, m.unit.c_str(), m.n, m.note.c_str());
}

void print_json(bool correct, const PhaseSummary& s,
                const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(s.attempted),
              static_cast<unsigned long long>(s.failed));
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), metrics[i].value,
                metrics[i].unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

// The per-op view of a phase, printed for people (not in the JSON).
void print_op_view(Workload w, const PhaseSummary& s, const Phase& ph) {
  const double mb = user_mb(s);
  std::vector<Metric> v;
  v.push_back({"error_ratio",
               s.attempted ? static_cast<double>(s.failed) / s.attempted : 0,
               "ratio", s.attempted, ""});
  if (s.put_bytes > 0) {
    v.push_back({"compression_ratio",
                 static_cast<double>(s.stored) / s.stored_base, "ratio",
                 s.puts.size(), "acknowledged puts"});
  }
  v.push_back(pct_metric("service_p50_ms", s.service, 50));  // from send
  v.push_back(pct_metric("lat_p50_ms", s.all, 50));  // from the due time
  v.push_back(tail_metric("lat", s.all, 99.9));
  v.push_back({"cpu_s_per_MB", (ph.bench_cpu_s + ph.daemon_cpu_s) / mb, "s/MB",
               s.attempted, ""});
  v.push_back({"host_steal_share", ph.steal_share, "ratio", 1,
               "CPU time the hypervisor gave to other guests"});
  if (w == Workload::kBackfill) {
    v.push_back({"put_MBps", s.put_bytes / 1e6 / ph.wall_s, "MB/s",
                 s.puts.size(), ""});
    v.push_back(pct_metric("put_p50_ms", s.puts, 50));
    v.push_back(tail_metric("put", s.puts, 99.9));
  }
  if (w == Workload::kServe) {
    v.push_back(pct_metric("put_p50_ms", s.puts, 50));
    v.push_back(pct_metric("put_p90_ms", s.puts, 90));
    v.push_back(pct_metric("get_p50_ms", s.gets, 50));
    v.push_back(pct_metric("get_p90_ms", s.gets, 90));
    v.push_back({"generator_late_ms_p50", 1e3 * pb::percentile_sorted(s.late, 50),
                 "ms", s.late.size(), ""});
    v.push_back(tail_metric("generator_late", s.late, 99.9));
    // A growing backlog shows as lateness rising from the first half of the
    // schedule to the second, and as the run ending well after its last op
    // was due.
    std::vector<double> halves[2];
    for (const OpRecord& r : ph.ops) {
      halves[r.due_s * 2 < ph.wall_s ? 0 : 1].push_back(r.late_s);
    }
    for (int h = 0; h < 2; ++h) {
      std::sort(halves[h].begin(), halves[h].end());
      v.push_back(pct_metric(h == 0 ? "generator_late_first_half_p75_ms"
                                    : "generator_late_second_half_p75_ms",
                             halves[h], 75));
    }
    double last_due = 0;
    for (const OpRecord& r : ph.ops) last_due = std::max<double>(last_due, r.due_s);
    v.push_back({"drain_after_last_due_ms", 1e3 * (ph.wall_s - last_due), "ms",
                 1, "wall end minus the last op's due time"});
  }
  if (w == Workload::kHotReads) {
    v.push_back(pct_metric("get_p50_ms", s.gets, 50));
    v.push_back(pct_metric("get_p99_ms", s.gets, 99));
    v.push_back({"get_MBps", s.get_bytes / 1e6 / ph.wall_s, "MB/s",
                 s.gets.size(), ""});
  }
  for (const Metric& m : v) print_metric("op", m);
}

// ---- the traced codec pass ---------------------------------------------------------

struct CodecFacts {
  double mb = 0, scan_s = 0, scan_encode_s = 0;
  double encode_s = 0, encode_cpu_s = 0, decode_s = 0, decode_cpu_s = 0;
  std::size_t files = 0;
};

// One caller, idle cores: parse + scan decode, CodecContext::encode and
// CodecContext::decode on a seeded sample of the workload's distinct
// admitted inputs.
CodecFacts codec_pass(const Inputs& in, const std::vector<std::uint32_t>& bases,
                      std::uint64_t seed) {
  std::vector<std::uint32_t> pool;
  for (std::uint32_t b : bases) {
    if (in.corpus.codes[b] == 0) pool.push_back(b);
  }
  std::sort(pool.begin(), pool.end());
  pool.erase(std::unique(pool.begin(), pool.end()), pool.end());
  std::vector<std::uint32_t> perm = pb::permutation(pool.size(), seed ^ 0xc0dec);
  CodecFacts f;
  lepton::CodecContext ctx;
  std::vector<std::uint8_t> input;
  for (std::size_t k = 0; k < pool.size() && k < kCodecSample; ++k) {
    const std::uint32_t b = pool[perm[k]];
    pb::tagged_into(in.corpus.files[b], seed + k, &input);
    lepton::Result enc = ctx.encode(input);  // warm this shape once
    if (!enc.ok()) continue;
    for (int rep = 0; rep < kCodecReps; ++rep) {
      auto t0 = Clock::now();
      try {
        lepton::jpegfmt::JpegFile jf = lepton::jpegfmt::parse_jpeg(input);
        (void)lepton::jpegfmt::decode_scan(jf);
      } catch (const std::exception&) {
        break;  // not the admitted file the encode says it is; skip it
      }
      auto t1 = Clock::now();
      double c0 = process_cpu_s();
      enc = ctx.encode(input);
      auto t2 = Clock::now();
      double c1 = process_cpu_s();
      lepton::Result dec = ctx.decode(enc.data);
      auto t3 = Clock::now();
      double c2 = process_cpu_s();
      if (!enc.ok() || !dec.ok() || dec.data != input) continue;
      f.scan_s += seconds_since(t0, t1);
      f.encode_s += seconds_since(t1, t2);
      f.encode_cpu_s += c1 - c0;
      f.decode_s += seconds_since(t2, t3);
      f.decode_cpu_s += c2 - c1;
      f.mb += static_cast<double>(input.size()) / 1e6;
    }
    ++f.files;
  }
  return f;
}

// ---- runs -------------------------------------------------------------------------

bool prepare_inputs(const Args& args, Inputs* in, std::string* err) {
  if (!pb::load_base_corpus(args.cache + "/corpus", &in->corpus, err)) return false;
  in->deck = std::make_unique<pb::Deck>(in->corpus.classes);
  std::string pop_dir;
  if (args.workload == Workload::kServe) pop_dir = args.cache + "/pop-serve";
  if (args.workload == Workload::kHotReads) pop_dir = args.cache + "/pop-hot";
  if (!pop_dir.empty()) {
    if (!pb::load_population(pop_dir, &in->pop, err)) return false;
    in->pop_root = pop_dir + "/store";
    in->zipf = std::make_unique<pb::Zipf>(in->pop.by_rank.size(), kZipfS);
  }
  return true;
}

std::string run_dir(const Args& args, const char* what) {
  return args.work + "/" + workload_name(args.workload) + "-" +
         std::to_string(args.seed) + "-" + what + "-" +
         std::to_string(::getpid());
}

struct PhaseResult {
  Phase phase;
  PhaseSummary sum;
  std::map<std::string, double> dstats;
  pb::ProcSample daemon_end;
};

// Setup (reps times; the last instance runs the phase), measured phase,
// read-back gate, daemon readings, teardown.
bool run_phase(const Args& args, Inputs& in, bool traced, int reps,
               PhaseResult* out, double* setup_s, std::string* err,
               bool* void_run) {
  std::vector<double> setups;
  std::unique_ptr<Instance> inst;
  for (int rep = 0; rep < reps; ++rep) {
    inst.reset();
    inst = std::make_unique<Instance>(args, in, run_dir(args, traced ? "t" : "u"));
    double s = 0;
    if (!inst->setup(rep, &s, err)) return false;
    setups.push_back(s);
  }
  *setup_s = pb::median_of(setups);
  Tracer tracer;
  if (traced) {
    lepton::storage::FleetClientConfig fc = lepton::storage::ShardedStoreConfig{}.fleet;
    fc.endpoints = {inst->daemon().endpoint()};
    fc.op = lepton::storage::FleetOp::kEncode;
    for (int k = 0; k < pb::kShards; ++k) {
      tracer.fleets.push_back(std::make_unique<lepton::storage::FleetClient>(fc));
      tracer.fleets.back()->start();
    }
  }
  Runner runner(args, in, *inst, traced ? &tracer : nullptr);
  out->phase = runner.run();
  if (out->phase.mismatch) {
    *err = out->phase.mismatch_what;
    *void_run = true;
    return false;
  }
  std::vector<Acked> all = out->phase.acked;
  all.insert(all.end(), inst->warm_acked().begin(), inst->warm_acked().end());
  if (!read_back(inst->store(), in, all, err)) {
    *void_run = true;
    return false;
  }
  out->dstats = pb::daemon_stats(inst->daemon().endpoint());
  out->daemon_end = pb::sample_proc(inst->daemon().pid());
  std::vector<std::uint64_t> pop_stored;
  if (!in.pop.by_rank.empty() && !inst->close_and_size(&pop_stored, err)) return false;
  out->sum = summarize(out->phase, pop_stored);
  return true;
}

std::vector<Metric> end_to_end(const PhaseResult& r, double setup_s,
                               int reps) {
  const PhaseSummary& s = r.sum;
  const Phase& ph = r.phase;
  const double mb = user_mb(s);
  std::vector<Metric> m;
  m.push_back({"setup_s", setup_s, "s", static_cast<std::size_t>(reps),
               "median of set-ups"});
  m.push_back({"user_MBps", mb / ph.wall_s, "MB/s", s.attempted - s.failed, ""});
  // The mean, not the median: on serve the median op is a small get or
  // put slowed by whichever large put it overlaps, so it moves with the
  // arrival pattern far more than the mean does (NOTES.md, "Steadiness").
  m.push_back({"service_mean_ms",
               s.service.empty() ? 0
                                 : 1e3 * std::accumulate(s.service.begin(), s.service.end(), 0.0) /
                                       static_cast<double>(s.service.size()),
               "ms", s.service.size(), "send to reply, every op"});
  m.push_back({"cpu_s_per_MB", (ph.bench_cpu_s + ph.daemon_cpu_s) / mb, "s/MB",
               s.attempted, ""});
  m.push_back({"peak_rss_MB", ph.hwm_mb, "MB", 2, "benchmark + leptond VmHWM"});
  m.push_back({"compression_ratio",
               s.stored_base ? static_cast<double>(s.stored) / s.stored_base : 0,
               "ratio", s.put_bytes ? s.puts.size() : s.gets.size(),
               s.put_bytes ? "acknowledged puts" : "objects read"});
  return m;
}

// Durations (ms, sorted) of the spans named `name` whose flag bits under
// `mask` equal `want`.
std::vector<double> span_ms(const std::vector<pb::Span>& spans, SpanName name,
                            int mask, int want) {
  std::vector<double> v;
  for (const pb::Span& s : spans) {
    if (s.name != name || (s.flag & mask) != want) continue;
    v.push_back(1e-6 * static_cast<double>(s.duration_ns()));
  }
  std::sort(v.begin(), v.end());
  return v;
}

// Self time of each put request: its span minus its children's cover.
std::vector<double> put_self_ms(const std::vector<pb::Span>& spans) {
  std::map<std::uint64_t, std::vector<const pb::Span*>> by_req;
  for (const pb::Span& s : spans) {
    if (s.name != kSpanGet) by_req[s.request].push_back(&s);
  }
  std::vector<double> out;
  for (auto& [req, list] : by_req) {
    const pb::Span* root = nullptr;
    std::vector<pb::Span> kids;
    for (const pb::Span* s : list) {
      if (s->parent < 0) {
        root = s;
      } else {
        kids.push_back(*s);
      }
    }
    if (root) out.push_back(1e-6 * static_cast<double>(pb::self_time_ns(*root, kids)));
  }
  std::sort(out.begin(), out.end());
  return out;
}

// The traced phase's spans and the untraced phase's op records, written
// when the run ends.
void write_trace(const Args& args, const std::vector<pb::Span>& spans,
                 const std::vector<OpRecord>& ops) {
  std::string err;
  const std::string& dir = args.spans;
  if (!pb::make_dirs(dir, &err)) return;
  const std::string stem = dir + "/" + workload_name(args.workload);
  if (std::FILE* f = std::fopen((stem + ".spans.tsv").c_str(), "w")) {
    std::fprintf(f, "request\tname\tparent\tstart_ns\tend_ns\tflag\n");
    for (const pb::Span& s : spans) {
      std::fprintf(f, "%llu\t%s\t%d\t%lld\t%lld\t%u\n",
                   static_cast<unsigned long long>(s.request),
                   kSpanNameText[s.name], s.parent,
                   static_cast<long long>(s.start_ns),
                   static_cast<long long>(s.end_ns), s.flag);
    }
    std::fclose(f);
  }
  if (std::FILE* f = std::fopen((stem + ".ops.tsv").c_str(), "w")) {
    std::fprintf(f, "type\tok\thit\tpassthrough\tlat_ms\tlate_ms\tbytes\tstored\n");
    for (const OpRecord& r : ops) {
      std::fprintf(f, "%s\t%d\t%d\t%d\t%.4f\t%.4f\t%llu\t%llu\n",
                   r.type == pb::OpType::kPut ? "put" : "get", r.ok, r.hit,
                   r.passthrough, 1e3 * r.lat_s, 1e3 * r.late_s,
                   static_cast<unsigned long long>(r.bytes),
                   static_cast<unsigned long long>(r.stored));
    }
    std::fclose(f);
  }
  std::printf("trace  %zu spans, %zu ops written to %s.{spans,ops}.tsv\n",
              spans.size(), ops.size(), stem.c_str());
}

std::vector<Metric> per_layer(const Args& args, const Inputs& in,
                              const PhaseResult& u, const PhaseResult& t,
                              const CodecFacts& codec) {
  const Phase& tp = t.phase;
  const PhaseSummary& us = u.sum;
  std::vector<Metric> m;
  auto add = [&](const char* name, double v, std::size_t n, std::string note = "") {
    for (const MetricDef& d : kPerLayer) {
      if (std::string(d.name) == name) {
        m.push_back({name, v, d.unit, n, std::move(note)});
        return;
      }
    }
    std::fprintf(stderr, "blockbench: unknown per-layer metric %s\n", name);
    std::abort();
  };
  auto ratio = [](double a, double b) { return b > 0 ? a / b : 0.0; };

  add("jpeg.scan_decode_ms_per_MB", ratio(1e3 * codec.scan_s, codec.mb), codec.files);
  add("jpeg.scan_share_of_encode", ratio(codec.scan_s, codec.encode_s), codec.files);
  add("lepton.encode_ms_per_MB", ratio(1e3 * codec.encode_s, codec.mb), codec.files);
  add("lepton.encode_cpu_per_wall", ratio(codec.encode_cpu_s, codec.encode_s), codec.files);
  add("lepton.decode_ms_per_MB", ratio(1e3 * codec.decode_s, codec.mb), codec.files);
  add("lepton.decode_cpu_per_wall", ratio(codec.decode_cpu_s, codec.decode_s), codec.files);
  {
    const int max_threads = lepton::EncodeOptions{}.max_threads;
    double segs = 0;
    for (const OpRecord& r : u.phase.ops) {
      segs += lepton::threads_for_size(in.corpus.files[r.base].size() + pb::kTagBytes,
                                       max_threads);
    }
    add("lepton.segments_per_file", ratio(segs, u.phase.ops.size()), u.phase.ops.size());
  }
  // A span percentile, with its sample count and tail support.
  auto add_span = [&](const char* name, SpanName span, int mask, int want,
                      double p) {
    std::vector<double> v = span_ms(tp.spans, span, mask, want);
    const std::size_t beyond = pb::samples_beyond(v.size(), p);
    add(name, pb::percentile_sorted(v, p), v.size(),
        !v.empty() && beyond < pb::kMinBeyond
            ? "only " + std::to_string(beyond) + " beyond"
            : "");
  };
  add_span("lepton.verify_ms_p50", kSpanAdmit, 0, 0, 50);
  add_span("lepton.verify_ms_p90", kSpanAdmit, 0, 0, 90);
  std::size_t puts = 0, passthrough = 0;
  for (const pb::Span& s : tp.spans) {
    puts += s.name == kSpanPut;
    passthrough += s.name == kSpanPassthrough;
  }
  // Admitted = converted and through the gate (a refused gate falls back
  // to pass-through, which is then its own span).
  add("lepton.admit_ratio", ratio(static_cast<double>(puts - passthrough), puts), puts);
  add("storage.passthrough_ratio", ratio(passthrough, puts), puts);
  add_span("storage.fleet_convert_ms_p50", kSpanConvert, 0, 0, 50);
  add_span("storage.fleet_convert_ms_p90", kSpanConvert, 0, 0, 90);
  double attempts = 0, first_timeouts = 0;
  for (const ConvertFact& c : tp.converts) {
    attempts += c.attempts;
    first_timeouts += c.first_timeout;
  }
  add("storage.fleet_attempts_per_convert", ratio(attempts, tp.converts.size()),
      tp.converts.size());
  add("storage.fleet_first_timeout_ratio", ratio(first_timeouts, tp.converts.size()),
      tp.converts.size());
  add_span("storage.commit_ms_p50", kSpanPutObject, 0, 0, 50);
  add_span("storage.commit_ms_p90", kSpanPutObject, 0, 0, 90);
  {
    std::vector<double> self = put_self_ms(tp.spans);
    add("storage.put_self_ms_p50", pb::percentile_sorted(self, 50), self.size());
  }
  add_span("storage.get_hit_ms_p50", kSpanGet, kFlagHit, kFlagHit, 50);
  add_span("storage.get_hit_ms_p99", kSpanGet, kFlagHit, kFlagHit, 99);
  add_span("storage.get_miss_ms_p50", kSpanGet, kFlagHit, 0, 50);
  add_span("storage.get_miss_ms_p90", kSpanGet, kFlagHit, 0, 90);
  std::size_t gets = 0, hits = 0;
  for (const pb::Span& s : tp.spans) {
    if (s.name != kSpanGet) continue;
    ++gets;
    hits += (s.flag & kFlagHit) != 0;
  }
  add("storage.cache_hit_ratio", ratio(hits, gets), gets);
  add("storage.cache_evictions",
      static_cast<double>(tp.cache_after.evictions - tp.cache_before.evictions), gets);

  auto stat = [&](const char* key) {
    auto it = u.dstats.find(key);
    return it == u.dstats.end() ? 0.0 : it->second;
  };
  const std::string timeout_key =
      "trailer_code_" + std::to_string(static_cast<int>(lepton::util::ExitCode::kTimeout));
  add("leptond.request_ms_p50", stat("request_p50_ms"), static_cast<std::size_t>(stat("requests")));
  add("leptond.request_ms_p99", stat("request_p99_ms"), static_cast<std::size_t>(stat("requests")));
  add("leptond.in_flight_peak", stat("in_flight_peak"), 1);
  add("leptond.timeout_trailers", stat(timeout_key.c_str()), static_cast<std::size_t>(stat("requests")));
  add("leptond.cpu_s_per_MB", ratio(u.phase.daemon_cpu_s, user_mb(us)), us.attempted);
  add("leptond.threads", u.daemon_end.threads, 1);
  add("leptond.rss_peak_MB", u.daemon_end.hwm_mb, 1);

  const bool open_loop = args.workload == Workload::kServe;
  add("bench.generator_late_ms_p99",
      open_loop ? 1e3 * pb::percentile_sorted(us.late, 99) : 0, us.late.size(),
      open_loop ? "" : "closed loop");
  // Medians of service time (from send), so open-loop queueing for a free
  // caller does not blur the comparison of the two call paths.
  for (auto [name, type] : {std::pair{"bench.traced_over_untraced_put_p50", pb::OpType::kPut},
                            std::pair{"bench.traced_over_untraced_get_p50", pb::OpType::kGet}}) {
    const std::vector<double> tv = latencies(tp.ops, type, tp.wall_s, true);
    const std::vector<double> uv = latencies(u.phase.ops, type, u.phase.wall_s, true);
    add(name, ratio(pb::percentile_sorted(tv, 50), pb::percentile_sorted(uv, 50)),
        tv.size());
  }
  return m;
}

int cmd_run(const Args& args) {
  Inputs in;
  std::string err;
  if (!prepare_inputs(args, &in, &err)) {
    std::fprintf(stderr, "blockbench: %s (run `blockbench prep` first)\n", err.c_str());
    return 2;
  }
  std::printf("bench  workload=%s seed=%llu seconds=%g trace=%d nproc=%u cpu=\"%s\"\n",
              workload_name(args.workload), static_cast<unsigned long long>(args.seed),
              args.seconds, args.trace, std::thread::hardware_concurrency(),
              [] {
                std::ifstream f("/proc/cpuinfo");
                std::string line;
                while (std::getline(f, line)) {
                  if (line.rfind("model name", 0) == 0) {
                    return line.substr(line.find(':') + 2);
                  }
                }
                return std::string("unknown");
              }().c_str());
  if (!in.pop.by_rank.empty()) {
    std::printf("bench  population=%zu keys, %.1f MB decoded, zipf s=%g\n",
                in.pop.by_rank.size(),
                [&] {
                  double b = 0;
                  for (auto& e : in.pop.by_rank) b += in.corpus.files[e.base].size();
                  return b / 1e6;
                }(),
                kZipfS);
  }
  if (args.workload == Workload::kServe) {
    std::printf("bench  open loop: %.2f ops/s Poisson, %.1f gets per put, <= %d callers\n",
                kServeRate, kGetsPerPut, pb::kCallers);
  } else {
    std::printf("bench  closed loop: %d callers\n", pb::kCallers);
  }
  std::fflush(stdout);

  bool void_run = false;
  PhaseResult u;
  double setup_s = 0;
  const int reps = args.trace ? 1 : setup_reps(args.workload);
  if (!run_phase(args, in, false, reps, &u, &setup_s, &err,
                 &void_run)) {
    std::fprintf(stderr, "blockbench: %s%s\n", void_run ? "VOID RUN: " : "",
                 err.c_str());
    return void_run ? 3 : 2;
  }
  print_op_view(args.workload, u.sum, u.phase);
  std::vector<Metric> e2e = end_to_end(u, setup_s, reps);
  for (const Metric& m : e2e) print_metric("e2e", m);
  if (args.trace == 0) {
    print_json(true, u.sum, e2e);
    return 0;
  }

  PhaseResult t;
  double traced_setup = 0;
  if (!run_phase(args, in, true, 1, &t, &traced_setup, &err, &void_run)) {
    std::fprintf(stderr, "blockbench: %s%s\n", void_run ? "VOID RUN: " : "",
                 err.c_str());
    return void_run ? 3 : 2;
  }
  write_trace(args, t.phase.spans, u.phase.ops);
  std::vector<std::uint32_t> bases;
  for (const OpRecord& r : u.phase.ops) bases.push_back(r.base);
  CodecFacts codec = codec_pass(in, bases, args.seed);
  std::vector<Metric> layers = per_layer(args, in, u, t, codec);
  for (const Metric& m : layers) print_metric("layer", m);
  PhaseSummary both = u.sum;
  both.attempted += t.sum.attempted;
  both.failed += t.sum.failed;
  print_json(true, both, layers);
  return 0;
}

// Serve's mix, closed loop at saturation: the reference for kServeRate.
int cmd_calibrate(Args args) {
  args.workload = Workload::kServe;
  Inputs in;
  std::string err;
  if (!prepare_inputs(args, &in, &err)) {
    std::fprintf(stderr, "blockbench: %s\n", err.c_str());
    return 2;
  }
  Instance inst(args, in, run_dir(args, "c"));
  double setup_s = 0;
  if (!inst.setup(0, &setup_s, &err)) {
    std::fprintf(stderr, "blockbench: %s\n", err.c_str());
    return 2;
  }
  // A long schedule, sent back to back by kCallers callers.
  std::vector<pb::Op> ops = pb::open_loop_schedule(
      *in.deck, *in.zipf, args.seed, 1000, args.seconds, 1.0 / (1.0 + kGetsPerPut));
  std::atomic<std::size_t> next{0}, done{0};
  const auto t0 = Clock::now();
  const auto deadline = t0 + std::chrono::duration_cast<Clock::duration>(
                                 std::chrono::duration<double>(args.seconds));
  pb::parallel_for(pb::kCallers, pb::kCallers, [&](std::size_t) {
    std::vector<std::uint8_t> buf;
    lepton::Result r;
    for (std::size_t i = next++; i < ops.size() && Clock::now() < deadline; i = next++) {
      const pb::Op& op = ops[i];
      if (op.type == pb::OpType::kPut) {
        pb::tagged_into(in.corpus.files[op.target], op.tag, &buf);
        inst.store().put("cal-" + hex16(op.tag), buf);
      } else {
        inst.store().get(in.pop.by_rank[op.target].key, &r);
      }
      ++done;
    }
  });
  const double wall = seconds_since(t0, Clock::now());
  std::printf("calibrate serve mix: %zu ops in %.2f s = %.3f ops/s at saturation "
              "(%d callers); half = %.3f ops/s\n",
              done.load(), wall, done / wall, pb::kCallers, 0.5 * done / wall);
  return 0;
}

int cmd_prep(const Args& args) {
  std::string err;
  const std::string corpus_dir = args.cache + "/corpus";
  if (!std::filesystem::exists(corpus_dir + "/manifest.tsv")) {
    std::printf("prep   building the base corpus (once per checkout)\n");
    std::fflush(stdout);
    pb::remove_tree(corpus_dir);
    if (!pb::build_base_corpus(corpus_dir, &err)) {
      pb::remove_tree(corpus_dir);
      std::fprintf(stderr, "blockbench: %s\n", err.c_str());
      return 2;
    }
  }
  pb::BaseCorpus corpus;
  if (!pb::load_base_corpus(corpus_dir, &corpus, &err)) {
    std::fprintf(stderr, "blockbench: %s\n", err.c_str());
    return 2;
  }
  for (auto [name, spec] : {std::pair{"pop-hot", pb::hot_population_spec()},
                            std::pair{"pop-serve", pb::serve_population_spec()}}) {
    const std::string dir = args.cache + "/" + name;
    if (std::filesystem::exists(dir + "/manifest.tsv")) continue;
    std::printf("prep   filling %s through ShardedStore::put (once per checkout)\n", name);
    std::fflush(stdout);
    if (!pb::build_population(corpus, spec, dir, args.leptond, &err)) {
      pb::remove_tree(dir);
      std::fprintf(stderr, "blockbench: %s\n", err.c_str());
      return 2;
    }
  }
  return 0;
}

int cmd_metrics(const Args& args) {
  if (args.trace) {
    for (const MetricDef& d : kPerLayer) std::printf("%s %s\n", d.name, d.unit);
  } else {
    for (const MetricDef& d : kEndToEnd) std::printf("%s %s\n", d.name, d.unit);
  }
  return 0;
}

int usage() {
  std::fprintf(stderr,
               "usage: blockbench prep|run|calibrate|metrics [--workload W] "
               "[--seed N] [--seconds S] [--trace 0|1] [--cache DIR] "
               "[--work DIR] [--spans DIR] [--leptond PATH]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  Args args;
  args.mode = argv[1];
  for (int i = 2; i + 1 < argc; i += 2) {
    const std::string k = argv[i], v = argv[i + 1];
    if (k == "--workload") {
      auto w = parse_workload(v);
      if (!w) return usage();
      args.workload = *w;
    } else if (k == "--seed") {
      args.seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (k == "--seconds") {
      args.seconds = std::strtod(v.c_str(), nullptr);
    } else if (k == "--trace") {
      args.trace = std::atoi(v.c_str());
    } else if (k == "--cache") {
      args.cache = v;
    } else if (k == "--work") {
      args.work = v;
    } else if (k == "--spans") {
      args.spans = v;
    } else if (k == "--leptond") {
      args.leptond = v;
    } else {
      return usage();
    }
  }
  if (args.mode == "prep") return cmd_prep(args);
  if (args.mode == "run") return cmd_run(args);
  if (args.mode == "calibrate") return cmd_calibrate(args);
  if (args.mode == "metrics") return cmd_metrics(args);
  return usage();
}
