// Benchmark inputs prepared outside the timed runs and cached in the
// checkout: the base corpus and the pre-populated shard roots.
//
//   base corpus  corpus::build_corpus over the paper's 100 KiB - 4 MiB band
//                (four log-spaced sub-bands built in parallel) plus one set
//                of §6.2 / §A.3 anomalies. Each file's §6.2 class is taken
//                once untagged and once tagged; they must agree.
//   population   deck draws from the base corpus, each with its own COM
//                tag, put through ShardedStore::put until the decoded bytes
//                reach a target; ranks (Zipf hotness) are a seeded
//                permutation independent of size. Every key is read back
//                byte-identical before the population is accepted.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "benchlib.h"

namespace perfbench {

struct BaseCorpus {
  std::vector<std::vector<std::uint8_t>> files;
  std::vector<FileClass> classes;
  std::vector<int> codes;  // §6.2 exit code of a plain encode
};

// Builds the base corpus into `dir` (files + manifest.tsv).
bool build_base_corpus(const std::string& dir, std::string* err);
bool load_base_corpus(const std::string& dir, BaseCorpus* out,
                      std::string* err);

struct PopEntry {
  std::string key;
  std::uint32_t base = 0;  // base-corpus file
  std::uint64_t tag = 0;
};

// Ranked population: by_rank[0] is the hottest key.
struct Population {
  std::vector<PopEntry> by_rank;
  std::uint64_t decoded_bytes = 0;
};

struct PopulationSpec {
  std::string name;              // key prefix
  std::uint64_t seed = 0;        // draws, tags and hotness
  std::uint64_t min_bytes = 0;   // draw until decoded bytes reach this...
  std::uint64_t max_bytes = 0;   // ...or stop before exceeding this (if set)
};

// Serve: >= 8x the store's decode cache. Hot reads: <= half of it.
std::uint64_t cache_budget();
PopulationSpec serve_population_spec();
PopulationSpec hot_population_spec();

// Draws the population's entries (no I/O).
Population draw_population(const BaseCorpus& corpus, const Deck& deck,
                           const PopulationSpec& spec);

// Fills `dir`/store through a leptond child + ShardedStore::put, reads every
// key back, and writes `dir`/manifest.tsv.
bool build_population(const BaseCorpus& corpus, const PopulationSpec& spec,
                      const std::string& dir, const std::string& leptond,
                      std::string* err);
bool load_population(const std::string& dir, Population* out,
                     std::string* err);

// Copies a store root for one run: objects/ is hard-linked (objects are
// immutable once committed — written by temp + rename), everything else
// (journal, quarantine log) is copied.
bool clone_root(const std::string& from, const std::string& to,
                std::string* err);

}  // namespace perfbench
