#include "serve.h"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstring>
#include <deque>
#include <fstream>
#include <functional>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <utility>

#include <fcntl.h>
#include <spawn.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include "config/acl_format.h"
#include "config/topology_format.h"
#include "gen/wan.h"
#include "svc/endpoint.h"
#include "svc/json.h"

extern char** environ;

namespace jinjing::perfbench {
namespace {

using Clock = std::chrono::steady_clock;
using svc::Json;

constexpr const char* kSocket = "jinjing.sock";
constexpr std::uint64_t kResultTimeoutMs = 120000;
// setup_s samples per run; the last boot serves the run.
constexpr std::size_t kBoots = 7;

double ms_since(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start).count();
}

struct RpcFailure : std::runtime_error {
  using std::runtime_error::runtime_error;
};

/// One connection, one request line out and one response line back, with
/// the exact byte count of both. Never reconnects or retries: a transport
/// or RPC error is the op's failure.
class WireClient {
 public:
  explicit WireClient(const std::string& path)
      : fd_(svc::dial(svc::Endpoint{svc::Endpoint::Kind::Unix, path, {}, 0})) {}
  ~WireClient() { ::close(fd_); }
  WireClient(const WireClient&) = delete;
  WireClient& operator=(const WireClient&) = delete;

  Json call(const std::string& method, Json params) {
    Json::Object request;
    request.emplace("id", next_id_++);
    request.emplace("method", method);
    request.emplace("params", std::move(params));
    const std::string line = Json{std::move(request)}.dump() + "\n";
    for (std::size_t sent = 0; sent < line.size();) {
      const ssize_t n = ::send(fd_, line.data() + sent, line.size() - sent, MSG_NOSIGNAL);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) throw RpcFailure(method + ": send: " + std::strerror(errno));
      sent += static_cast<std::size_t>(n);
    }
    sent_bytes += line.size();
    std::size_t newline;
    while ((newline = buffer_.find('\n')) == std::string::npos) {
      char chunk[65536];
      const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) throw RpcFailure(method + ": connection closed");
      buffer_.append(chunk, static_cast<std::size_t>(n));
    }
    received_bytes += newline + 1;
    Json response = Json::parse(std::string_view{buffer_}.substr(0, newline));
    buffer_.erase(0, newline + 1);
    if (const Json* error = response.get("error")) {
      throw RpcFailure(method + ": error " + error->dump());
    }
    return response.at("result");
  }

  std::uint64_t sent_bytes = 0;
  std::uint64_t received_bytes = 0;

 private:
  int fd_;
  std::uint64_t next_id_ = 1;
  std::string buffer_;
};

Json submit_params(const Op& op) {
  Json::Object params;
  params.emplace("program", op.program);
  Json::Object acls;
  for (const auto& [name, acl] : op.acls) acls.emplace(name, config::print_acl(acl));
  params.emplace("acls", Json{std::move(acls)});
  return Json{std::move(params)};
}

Json job_params(std::uint64_t job, std::uint64_t timeout_ms = 0) {
  Json::Object params;
  params.emplace("job", job);
  if (timeout_ms > 0) params.emplace("timeout_ms", timeout_ms);
  return Json{std::move(params)};
}

/// `jinjing serve` as a child process; killed and reaped on destruction
/// unless it was shut down cleanly first.
class ServerProcess {
 public:
  ServerProcess(const std::string& jinjing, const std::string& network,
                const std::vector<std::string>& flags, const std::string& log) {
    std::vector<std::string> args{jinjing, "serve", "--network", network, "--socket", kSocket};
    args.insert(args.end(), flags.begin(), flags.end());
    std::vector<char*> argv;
    for (auto& a : args) argv.push_back(a.data());
    argv.push_back(nullptr);
    ::unlink(kSocket);
    posix_spawn_file_actions_t actions;
    posix_spawn_file_actions_init(&actions);
    posix_spawn_file_actions_addopen(&actions, 1, log.c_str(), O_WRONLY | O_CREAT | O_APPEND,
                                     0644);
    posix_spawn_file_actions_adddup2(&actions, 1, 2);
    const int rc = posix_spawn(&pid_, jinjing.c_str(), &actions, nullptr, argv.data(), environ);
    posix_spawn_file_actions_destroy(&actions);
    if (rc != 0) throw std::runtime_error("spawn " + jinjing + ": " + std::strerror(rc));
  }

  ~ServerProcess() {
    if (pid_ <= 0) return;
    ::kill(pid_, SIGKILL);
    int status = 0;
    ::waitpid(pid_, &status, 0);
  }

  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  /// Polls until the socket accepts a connection.
  void wait_ready(double timeout_s) {
    const auto start = Clock::now();
    while (true) {
      try {
        WireClient probe{kSocket};
        return;
      } catch (const std::exception&) {
      }
      int status = 0;
      if (::waitpid(pid_, &status, WNOHANG) == pid_) {
        pid_ = -1;
        throw std::runtime_error("jinjing serve exited during start-up (see server log)");
      }
      if (ms_since(start) > timeout_s * 1000) throw std::runtime_error("server start timed out");
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  }

  /// shutdown RPC, then reap; throws if the server does not exit cleanly.
  void shutdown() {
    {
      WireClient client{kSocket};
      (void)client.call("shutdown", Json{Json::Object{}});
    }
    int status = 0;
    ::waitpid(pid_, &status, 0);
    pid_ = -1;
    if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
      throw std::runtime_error("jinjing serve did not exit cleanly");
    }
  }

  [[nodiscard]] std::string proc_file(const char* name) const {
    std::ifstream in{"/proc/" + std::to_string(pid_) + "/" + name};
    std::stringstream text;
    text << in.rdbuf();
    return text.str();
  }

  [[nodiscard]] std::uint64_t peak_rss_kb() const {
    std::istringstream status{proc_file("status")};
    for (std::string line; std::getline(status, line);) {
      if (line.rfind("VmHWM:", 0) == 0) return std::stoull(line.substr(6));
    }
    throw std::runtime_error("no VmHWM in /proc status");
  }

  [[nodiscard]] double cpu_seconds() const {
    const std::string stat = proc_file("stat");
    std::istringstream fields{stat.substr(stat.rfind(')') + 2)};
    std::string field;
    std::uint64_t utime = 0, stime = 0;
    // Fields after the command name start at 3 (state); utime is 14.
    for (int i = 3; i <= 15 && fields >> field; ++i) {
      if (i == 14) utime = std::stoull(field);
      if (i == 15) stime = std::stoull(field);
    }
    return static_cast<double>(utime + stime) / static_cast<double>(::sysconf(_SC_CLK_TCK));
  }

 private:
  pid_t pid_ = -1;
};

/// A submitted job awaiting its result.
struct InFlight {
  Op op;
  std::size_t round = 0;
  std::uint64_t job = 0;
  std::uint64_t snapshot = 0;
  Clock::time_point start;
  std::uint64_t submit_sent = 0;
  std::uint64_t submit_received = 0;
  bool keep = false;
};

class ClosedLoop {
 public:
  ClosedLoop(const WorkloadSpec& spec, const gen::Wan& wan, unsigned seed, ServedRun& out)
      : spec_(spec), wan_(wan), seed_(seed), out_(out) {}

  /// Runs rounds from `first` on every connection: the warm-up rounds, or
  /// (timed) every round started before `deadline` and at least the floor.
  void run_phase(std::size_t first, bool timed, Clock::time_point deadline) {
    next_round_ = first;
    timed_ = timed;
    deadline_ = deadline;
    std::vector<std::thread> threads;
    for (unsigned c = 0; c < spec_.connections; ++c) {
      threads.emplace_back([this] { connection(); });
    }
    for (auto& t : threads) t.join();
  }

  [[nodiscard]] std::size_t claimed() const { return next_round_; }

  /// Called once, when the timed rounds reach the floor: the point where
  /// every run has done the same work, whatever its speed.
  std::function<void()> at_floor;

 private:
  bool claim(std::size_t& round) {
    const std::lock_guard<std::mutex> lock{mutex_};
    const std::size_t r = next_round_;
    if (timed_) {
      const bool past_floor = r - spec_.warmup_rounds >= spec_.min_rounds;
      if (past_floor && at_floor) std::exchange(at_floor, nullptr)();
      if (past_floor && Clock::now() >= deadline_) return false;
    } else if (r >= spec_.warmup_rounds) {
      return false;
    }
    ++next_round_;
    round = r;
    return true;
  }

  bool keep_for_oracle(const Op& op, std::size_t round) {
    if (!timed_) return false;
    const std::lock_guard<std::mutex> lock{mutex_};
    std::size_t cap = 0;
    bool picked = false;
    if (spec_.name == "check_flood") {
      // SMT on every coalesced check would take longer than the run.
      picked = mix_seed(seed_, round, 77) % 16 == 0;
      cap = 24;
    } else if (spec_.name == "interactive_large") {
      picked = mix_seed(seed_, round, 77) % 4 == 0;
      cap = op.kind == OpKind::Check ? 24 : 12;
    } else {
      picked = true;
      cap = SIZE_MAX;
    }
    if (!picked || kept_[static_cast<std::size_t>(op.kind)] >= cap) return false;
    ++kept_[static_cast<std::size_t>(op.kind)];
    return true;
  }

  // Warm-up ops count as attempted and can fail the run; only timed ops
  // contribute samples.
  void fail(const std::string& what) {
    const std::lock_guard<std::mutex> lock{mutex_};
    ++out_.failed;
    if (out_.failures.size() < 8) out_.failures.push_back(timed_ ? what : "warm-up: " + what);
  }

  void count_attempt() {
    const std::lock_guard<std::mutex> lock{mutex_};
    ++out_.attempted;
  }

  void submit(WireClient& client, InFlight& job) {
    count_attempt();
    const std::uint64_t sent = client.sent_bytes, received = client.received_bytes;
    job.start = Clock::now();
    const Json submitted = client.call("submit", submit_params(job.op));
    job.job = submitted.at("job").as_u64();
    job.snapshot = submitted.at("snapshot").as_u64();
    job.submit_sent = client.sent_bytes - sent;
    job.submit_received = client.received_bytes - received;
  }

  /// Waits for the job's result; records a failure when it did not finish
  /// `done` with the answer its kind requires.
  void complete(WireClient& client, InFlight& job, std::uint64_t* applied_job) {
    const std::uint64_t sent = client.sent_bytes, received = client.received_bytes;
    const Json result = client.call("result", job_params(job.job, kResultTimeoutMs));
    const double latency = ms_since(job.start);
    const std::string where =
        std::string(to_string(job.op.kind)) + " in round " + std::to_string(job.round);
    if (!result.at("done").as_bool()) {
      fail(where + ": no result within " + std::to_string(kResultTimeoutMs) + " ms");
      return;
    }
    const Json& status = result.at("status");
    const std::string state = status.at("state").as_string();
    if (state != "done") {
      fail(where + ": job ended " + state);
      return;
    }
    const Json& outcome = status.at("outcome");
    Record record;
    record.success = outcome.at("success").as_bool();
    if (const Json* plan = outcome.get("plan")) record.plan = plan->as_string();
    if (const Json* commands = outcome.get("commands")) {
      for (const Json& cmd : commands->as_array()) {
        if (const Json* c = cmd.get("consistent")) record.consistent.push_back(c->as_bool());
      }
    }
    const bool needs_success = job.op.kind == OpKind::Fix || job.op.kind == OpKind::Generate ||
                               job.op.apply_candidate;
    if (needs_success && !record.success) {
      fail(where + ": no deployable plan");
      return;
    }
    if (applied_job != nullptr && job.op.apply_candidate) *applied_job = job.job;
    if (!timed_) return;

    const std::lock_guard<std::mutex> lock{mutex_};
    out_.latency_ms[static_cast<std::size_t>(job.op.kind)].push_back(latency);
    if (job.op.kind == OpKind::Check) {
      out_.check_request_bytes += job.submit_sent + (client.sent_bytes - sent);
      out_.check_response_bytes += job.submit_received + (client.received_bytes - received);
      ++out_.checks_on_wire;
    }
    if (job.keep) {
      record.op = std::move(job.op);
      record.round = job.round;
      record.snapshot = job.snapshot;
      out_.records.push_back(std::move(record));
    }
  }

  void apply(WireClient& client, std::uint64_t job, const Op& candidate) {
    count_attempt();
    const auto start = Clock::now();
    const Json applied = client.call("apply", job_params(job));
    const double latency = ms_since(start);
    const std::lock_guard<std::mutex> lock{mutex_};
    const std::uint64_t version = applied.at("version").as_u64();
    out_.applied.emplace(version, candidate);
    if (timed_) out_.latency_ms[static_cast<std::size_t>(OpKind::Apply)].push_back(latency);
  }

  void connection() {
    try {
      drive();
    } catch (const std::exception& e) {
      fail(std::string("connection: ") + e.what());
    }
  }

  void drive() {
    WireClient client{kSocket};
    std::deque<InFlight> in_flight;
    const auto finish_oldest = [&] {
      InFlight job = std::move(in_flight.front());
      in_flight.pop_front();
      try {
        complete(client, job, nullptr);
      } catch (const std::exception& e) {
        fail(std::string(to_string(job.op.kind)) + ": " + e.what());
      }
    };
    std::size_t round = 0;
    while (claim(round)) {
      std::vector<Op> ops = round_ops(spec_, wan_, seed_, round);
      std::uint64_t candidate_job = 0;
      Op candidate;
      for (Op& op : ops) {
        if (op.kind == OpKind::Apply) {
          while (!in_flight.empty()) finish_oldest();
          if (candidate_job == 0) {
            count_attempt();
            fail("apply in round " + std::to_string(round) + ": candidate check failed");
            continue;
          }
          try {
            apply(client, candidate_job, candidate);
          } catch (const std::exception& e) {
            fail("apply in round " + std::to_string(round) + ": " + e.what());
          }
          continue;
        }
        while (in_flight.size() >= spec_.depth) finish_oldest();
        InFlight job;
        job.round = round;
        job.keep = keep_for_oracle(op, round);
        if (op.apply_candidate) candidate = op;
        job.op = std::move(op);
        try {
          submit(client, job);
        } catch (const std::exception& e) {
          fail(std::string(to_string(job.op.kind)) + " submit: " + e.what());
          continue;
        }
        if (spec_.depth == 1) {
          try {
            complete(client, job, &candidate_job);
          } catch (const std::exception& e) {
            fail(std::string(to_string(job.op.kind)) + ": " + e.what());
          }
        } else {
          in_flight.push_back(std::move(job));
        }
      }
    }
    while (!in_flight.empty()) finish_oldest();
  }

  const WorkloadSpec& spec_;
  const gen::Wan& wan_;
  const unsigned seed_;
  ServedRun& out_;
  std::mutex mutex_;
  std::size_t next_round_ = 0;
  bool timed_ = false;
  Clock::time_point deadline_;
  std::size_t kept_[kOpKinds] = {};
};

/// The server's metrics text, over a connection of its own that is closed
/// again before the timed window opens.
std::string metrics_text() {
  WireClient client{kSocket};
  return client.call("metrics", Json{Json::Object{}}).at("prometheus").as_string();
}

}  // namespace

ServedRun run_served(const RunConfig& config) {
  const WorkloadSpec spec = workload(config.workload);
  const gen::Wan wan = gen::make_wan(wan_params(spec));
  ServedRun out;
  out.server_flags = spec.server_flags;
  {
    config::NetworkFile file;
    file.topo = wan.topo;
    file.traffic = wan.traffic;
    out.network_text = config::print_network(file);
  }
  const std::string network = "network.topo";
  {
    std::ofstream file{network};
    file << out.network_text;
    if (!file) throw std::runtime_error("cannot write " + network);
  }
  for (std::size_t r = 0; r < kFingerprintRounds; ++r) {
    const std::vector<Op> ops = round_ops(spec, wan, config.seed, r);
    for (std::size_t i = 0; i < ops.size(); ++i) out.op_lines.push_back(describe(ops[i], r, i));
  }

  // Set-up: spawn until the first check verdict returns, several times.
  // The first op of the sequence is the probe; it is never timed again.
  const Op probe = round_ops(spec, wan, config.seed, 0).front();
  std::unique_ptr<ServerProcess> server;
  for (std::size_t boot = 0; boot < kBoots; ++boot) {
    if (server) server->shutdown();
    const auto start = Clock::now();
    server = std::make_unique<ServerProcess>(config.jinjing, network, spec.server_flags,
                                             "server.log");
    server->wait_ready(60);
    WireClient client{kSocket};
    const Json submitted = client.call("submit", submit_params(probe));
    const Json result =
        client.call("result", job_params(submitted.at("job").as_u64(), kResultTimeoutMs));
    if (!result.at("done").as_bool() ||
        result.at("status").at("state").as_string() != "done") {
      throw std::runtime_error("set-up probe check did not finish: " + result.dump());
    }
    out.setup_seconds.push_back(ms_since(start) / 1000.0);
  }

  ClosedLoop loop{spec, wan, config.seed, out};
  // Server memory grows with the jobs it retains, so the high-water mark is
  // read after a fixed amount of work rather than at the end of the window.
  loop.at_floor = [&] { out.peak_rss_kb = server->peak_rss_kb(); };
  loop.run_phase(0, false, Clock::now());

  out.metrics_before = metrics_text();
  const double cpu_before = server->cpu_seconds();
  const auto start = Clock::now();
  loop.run_phase(spec.warmup_rounds, true,
                   start + std::chrono::duration_cast<Clock::duration>(
                               std::chrono::duration<double>(config.seconds)));
  out.window_seconds = ms_since(start) / 1000.0;
  out.server_cpu_seconds = server->cpu_seconds() - cpu_before;
  out.metrics_after = metrics_text();
  out.rounds = loop.claimed() - spec.warmup_rounds;
  server->shutdown();
  return out;
}

}  // namespace jinjing::perfbench
