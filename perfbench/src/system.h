// The system under test, as the benchmark drives it: a `leptond` child on
// a unix socket, a 4-shard storage::ShardedStore with its defaults whose
// per-shard FleetClients all point at that daemon, and /proc readings of
// both processes.
#pragma once

#include <sys/types.h>

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "storage/sharded_store.h"

namespace perfbench {

inline constexpr int kShards = 4;
inline constexpr int kCallers = 4;

// leptond as a child process, default flags except --listen. The child
// dies with the benchmark (PR_SET_PDEATHSIG); stop() drains it with
// SIGTERM and reaps it.
class Daemon {
 public:
  Daemon() = default;
  ~Daemon();
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  // Spawns and waits for the first successful PING.
  bool start(const std::string& binary, const std::string& socket_path,
             const std::string& log_path, std::string* err);
  void stop();

  pid_t pid() const { return pid_; }
  const std::string& endpoint() const { return endpoint_; }

 private:
  pid_t pid_ = -1;
  std::string endpoint_;
};

struct ProcSample {
  double cpu_s = 0;       // utime + stime
  double hwm_mb = 0;      // VmHWM
  int threads = 0;
};
ProcSample sample_proc(pid_t pid);  // pid 0 = this process

// The machine's CPU time from /proc/stat, in clock ticks: all of it and the
// part the hypervisor gave to other guests (steal).
struct HostTicks {
  double total = 0;
  double steal = 0;
};
HostTicks sample_host();

// Opens the 4-shard store over `root`/shard-<k>, every shard's fleet
// pointing at `endpoint`. Everything else is ShardedStoreConfig's default.
std::unique_ptr<lepton::storage::ShardedStore> open_store(
    const std::string& root, const std::string& endpoint, std::string* err);

// Payload bytes on disk behind each key of a closed store root, read
// through each shard's own index (DurableStore::lookup).
bool stored_bytes(const std::string& root, const std::vector<std::string>& keys,
                  std::vector<std::uint64_t>* sizes, std::string* err);

// STATS of the daemon, as "key -> value" (trailer_code_<n> rows keep the
// count under their own key).
std::map<std::string, double> daemon_stats(const std::string& endpoint);

// Runs fn(i) for i in [0, n) on `threads` workers (work-stealing by index).
void parallel_for(std::size_t n, int threads,
                  const std::function<void(std::size_t)>& fn);

bool make_dirs(const std::string& path, std::string* err);
void remove_tree(const std::string& path);

}  // namespace perfbench
