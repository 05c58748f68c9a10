// perfbench_load: the benchmark's load generator, oracle and traced replay.
//
//   perfbench_load run    --workload W --seed N --seconds S --jinjing PATH
//   perfbench_load replay --workload W --seed N --unit U --trace-out FILE
//   perfbench_load ops    --workload W --seed N [--rounds R]
//
// `run` and `replay` print one JSON object on stdout; run.py turns it into
// the benchmark's metrics. `ops` prints the op descriptions whose FNV-1a
// digest is the op-list fingerprint. Files go to the working directory.
#include <cstdio>
#include <iostream>
#include <map>
#include <stdexcept>
#include <string>

#include "oracle.h"
#include "replay.h"
#include "serve.h"
#include "svc/json.h"

namespace jinjing::perfbench {
namespace {

using svc::Json;

Json strings(const std::vector<std::string>& values) {
  Json::Array array;
  for (const auto& v : values) array.emplace_back(v);
  return Json{std::move(array)};
}

Json numbers(const std::vector<double>& values) {
  Json::Array array;
  for (const double v : values) array.emplace_back(v);
  return Json{std::move(array)};
}

Json run_command(const std::map<std::string, std::string>& args) {
  RunConfig config;
  config.workload = args.at("--workload");
  config.seed = static_cast<unsigned>(std::stoul(args.at("--seed")));
  config.seconds = std::stod(args.at("--seconds"));
  config.jinjing = args.at("--jinjing");

  const ServedRun run = run_served(config);
  const OracleReport oracle = run_oracle(workload(config.workload), run);

  Json::Object out;
  out.emplace("server_flags", strings(run.server_flags));
  out.emplace("setup_s", numbers(run.setup_seconds));
  out.emplace("window_s", run.window_seconds);
  out.emplace("rounds", static_cast<std::uint64_t>(run.rounds));
  out.emplace("attempted", static_cast<std::uint64_t>(run.attempted));
  out.emplace("failed", static_cast<std::uint64_t>(run.failed + oracle.mismatches));
  std::vector<std::string> failures = run.failures;
  failures.insert(failures.end(), oracle.failures.begin(), oracle.failures.end());
  out.emplace("failures", strings(failures));
  Json::Object latency;
  for (std::size_t k = 0; k < kOpKinds; ++k) {
    latency.emplace(to_string(static_cast<OpKind>(k)), numbers(run.latency_ms[k]));
  }
  out.emplace("latency_ms", Json{std::move(latency)});
  Json::Object wire;
  wire.emplace("check_request_bytes", run.check_request_bytes);
  wire.emplace("check_response_bytes", run.check_response_bytes);
  wire.emplace("checks", run.checks_on_wire);
  out.emplace("wire", Json{std::move(wire)});
  out.emplace("peak_rss_kb", run.peak_rss_kb);
  out.emplace("server_cpu_s", run.server_cpu_seconds);
  out.emplace("metrics_before", run.metrics_before);
  out.emplace("metrics_after", run.metrics_after);
  out.emplace("op_lines", strings(run.op_lines));
  Json::Object checked;
  for (std::size_t k = 0; k < kOpKinds; ++k) {
    checked.emplace(to_string(static_cast<OpKind>(k)), static_cast<std::uint64_t>(oracle.checked[k]));
  }
  Json::Object gate;
  gate.emplace("checked", Json{std::move(checked)});
  gate.emplace("mismatches", static_cast<std::uint64_t>(oracle.mismatches));
  gate.emplace("seconds", oracle.seconds);
  out.emplace("oracle", Json{std::move(gate)});
  return Json{std::move(out)};
}

Json ops_command(const std::map<std::string, std::string>& args) {
  const WorkloadSpec spec = workload(args.at("--workload"));
  const auto seed = static_cast<unsigned>(std::stoul(args.at("--seed")));
  const std::size_t rounds =
      args.contains("--rounds") ? std::stoul(args.at("--rounds")) : kFingerprintRounds;
  const gen::Wan wan = gen::make_wan(wan_params(spec));
  std::vector<std::string> lines;
  for (std::size_t r = 0; r < rounds; ++r) {
    const std::vector<Op> ops = round_ops(spec, wan, seed, r);
    for (std::size_t i = 0; i < ops.size(); ++i) lines.push_back(describe(ops[i], r, i));
  }
  Json::Object out;
  out.emplace("op_lines", strings(lines));
  return Json{std::move(out)};
}

Json replay_command(const std::map<std::string, std::string>& args) {
  ReplayConfig config;
  config.workload = args.at("--workload");
  config.seed = static_cast<unsigned>(std::stoul(args.at("--seed")));
  config.unit = std::stoul(args.at("--unit"));
  config.trace_path = args.at("--trace-out");
  return run_replay(config);
}

}  // namespace
}  // namespace jinjing::perfbench

int main(int argc, char** argv) {
  using namespace jinjing::perfbench;
  if (argc < 2) {
    std::cerr << "usage: perfbench_load run|replay|ops --workload W --seed N ...\n";
    return 2;
  }
  const std::string command = argv[1];
  std::map<std::string, std::string> args;
  for (int i = 2; i + 1 < argc; i += 2) args[argv[i]] = argv[i + 1];
  try {
    jinjing::svc::Json out;
    if (command == "run") {
      out = run_command(args);
    } else if (command == "replay") {
      out = replay_command(args);
    } else if (command == "ops") {
      out = ops_command(args);
    } else {
      std::cerr << "unknown command " << command << "\n";
      return 2;
    }
    std::cout << out.dump() << "\n";
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "perfbench_load " << command << ": " << e.what() << "\n";
    return 1;
  }
}
