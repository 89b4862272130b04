#include "system.h"

#include <signal.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <fcntl.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>
#include <vector>

#include "server/client.h"
#include "storage/durable_store.h"

namespace perfbench {

namespace fs = std::filesystem;
using lepton::server::LeptonClient;

Daemon::~Daemon() { stop(); }

bool Daemon::start(const std::string& binary, const std::string& socket_path,
                   const std::string& log_path, std::string* err) {
  std::error_code ec;
  fs::remove(socket_path, ec);
  endpoint_ = "unix:" + socket_path;
  const std::string listen = endpoint_;
  const pid_t parent = ::getpid();
  pid_t pid = ::fork();
  if (pid < 0) {
    *err = "fork failed";
    return false;
  }
  if (pid == 0) {
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (::getppid() != parent) ::_exit(127);
    int fd = ::open(log_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (fd >= 0) {
      ::dup2(fd, 1);
      ::dup2(fd, 2);
      ::close(fd);
    }
    ::execl(binary.c_str(), binary.c_str(), "--listen", listen.c_str(),
            static_cast<char*>(nullptr));
    ::_exit(127);
  }
  pid_ = pid;
  const auto give_up = std::chrono::steady_clock::now() + std::chrono::seconds(20);
  while (std::chrono::steady_clock::now() < give_up) {
    int status = 0;
    if (::waitpid(pid_, &status, WNOHANG) == pid_) {
      pid_ = -1;
      *err = "leptond exited during start-up (see " + log_path + ")";
      return false;
    }
    LeptonClient c = LeptonClient::connect(endpoint_);
    if (c.ok()) {
      lepton::server::RequestOptions opts;
      opts.transport_timeout = std::chrono::milliseconds(1000);
      if (c.ping(opts).ok()) return true;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  *err = "leptond did not answer PING within 20 s";
  stop();
  return false;
}

void Daemon::stop() {
  if (pid_ <= 0) return;
  ::kill(pid_, SIGTERM);
  const auto give_up = std::chrono::steady_clock::now() + std::chrono::seconds(20);
  int status = 0;
  while (::waitpid(pid_, &status, WNOHANG) == 0) {
    if (std::chrono::steady_clock::now() > give_up) {
      ::kill(pid_, SIGKILL);
      ::waitpid(pid_, &status, 0);
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  pid_ = -1;
}

ProcSample sample_proc(pid_t pid) {
  ProcSample s;
  const std::string dir =
      pid == 0 ? std::string("/proc/self") : "/proc/" + std::to_string(pid);
  if (pid == 0) {
    // Finer than clock ticks for our own process.
    rusage ru{};
    ::getrusage(RUSAGE_SELF, &ru);
    s.cpu_s = static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
              1e-6 * static_cast<double>(ru.ru_utime.tv_usec +
                                         ru.ru_stime.tv_usec);
  } else {
    std::ifstream f(dir + "/stat");
    std::string text((std::istreambuf_iterator<char>(f)),
                     std::istreambuf_iterator<char>());
    // Fields after the parenthesised comm, from field 3 (state); utime and
    // stime are fields 14 and 15 (1-based, see proc(5)).
    auto close = text.rfind(')');
    if (close != std::string::npos && close + 2 <= text.size()) {
      std::istringstream in(text.substr(close + 2));
      std::string field;
      double utime = 0, stime = 0;
      for (int i = 3; i <= 15 && (in >> field); ++i) {
        if (i == 14) utime = std::stod(field);
        if (i == 15) stime = std::stod(field);
      }
      s.cpu_s = (utime + stime) / static_cast<double>(::sysconf(_SC_CLK_TCK));
    }
  }
  std::ifstream f(dir + "/status");
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      s.hwm_mb = std::stod(line.substr(6)) * 1024.0 / 1e6;
    } else if (line.rfind("Threads:", 0) == 0) {
      s.threads = std::stoi(line.substr(8));
    }
  }
  return s;
}

std::unique_ptr<lepton::storage::ShardedStore> open_store(
    const std::string& root, const std::string& endpoint, std::string* err) {
  lepton::storage::ShardedStoreConfig cfg;
  for (int k = 0; k < kShards; ++k) {
    lepton::storage::ShardBackendConfig sh;
    sh.name = "shard-" + std::to_string(k);
    sh.root = root + "/" + sh.name;
    sh.endpoints = {endpoint};
    cfg.shards.push_back(std::move(sh));
  }
  return lepton::storage::ShardedStore::open(std::move(cfg), err);
}

HostTicks sample_host() {
  HostTicks t;
  std::ifstream f("/proc/stat");
  std::string cpu;
  f >> cpu;  // "cpu": user nice system idle iowait irq softirq steal ...
  double v = 0;
  for (int i = 0; i < 8 && (f >> v); ++i) {
    t.total += v;
    if (i == 7) t.steal = v;
  }
  return t;
}

bool stored_bytes(const std::string& root, const std::vector<std::string>& keys,
                  std::vector<std::uint64_t>* sizes, std::string* err) {
  sizes->assign(keys.size(), 0);
  std::vector<bool> found(keys.size(), false);
  for (int k = 0; k < kShards; ++k) {
    lepton::storage::DurableStoreConfig cfg;
    cfg.root = root + "/shard-" + std::to_string(k);
    cfg.verify_md5_on_open = false;
    auto shard = lepton::storage::DurableStore::open(cfg, err);
    if (shard == nullptr) return false;
    for (std::size_t i = 0; i < keys.size(); ++i) {
      std::uint64_t size = 0;
      if (!found[i] && shard->lookup(keys[i], nullptr, nullptr, &size)) {
        (*sizes)[i] = size;
        found[i] = true;
      }
    }
  }
  for (std::size_t i = 0; i < keys.size(); ++i) {
    if (!found[i]) {
      *err = "key " + keys[i] + " is in no shard of " + root;
      return false;
    }
  }
  return true;
}

std::map<std::string, double> daemon_stats(const std::string& endpoint) {
  std::map<std::string, double> out;
  LeptonClient c = LeptonClient::connect(endpoint);
  if (!c.ok()) return out;
  auto r = c.stats();
  if (!r.ok()) return out;
  std::istringstream in(std::string(r.data.begin(), r.data.end()));
  std::string line;
  while (std::getline(in, line)) {
    std::istringstream row(line);
    std::string key, a, b;
    row >> key >> a;
    if (key.rfind("trailer_code_", 0) == 0) {
      row >> b;  // "trailer_code_<n> <name> <count>"
      a = b;
    }
    try {
      out[key] = std::stod(a);
    } catch (...) {
      // non-numeric rows are not metrics
    }
  }
  return out;
}

void parallel_for(std::size_t n, int threads,
                  const std::function<void(std::size_t)>& fn) {
  std::atomic<std::size_t> next{0};
  std::vector<std::thread> pool;
  for (int t = 0; t < threads; ++t) {
    pool.emplace_back([&] {
      for (std::size_t i = next++; i < n; i = next++) fn(i);
    });
  }
  for (auto& th : pool) th.join();
}

bool make_dirs(const std::string& path, std::string* err) {
  std::error_code ec;
  fs::create_directories(path, ec);
  if (ec) {
    *err = "cannot create " + path + ": " + ec.message();
    return false;
  }
  return true;
}

void remove_tree(const std::string& path) {
  std::error_code ec;
  fs::remove_all(path, ec);
}

}  // namespace perfbench
