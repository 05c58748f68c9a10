#include "replay.h"

#include <algorithm>
#include <chrono>
#include <fstream>
#include <map>
#include <memory>
#include <stdexcept>

#include "config/acl_format.h"
#include "config/topology_format.h"
#include "core/batch.h"
#include "core/deploy.h"
#include "core/engine.h"
#include "core/incremental.h"
#include "lai/parser.h"
#include "ops.h"
#include "svc/state_store.h"
#include "topo/fec_delta.h"

namespace jinjing::perfbench {
namespace {

using Clock = std::chrono::steady_clock;
using svc::Json;

// Executor width of the replayed batch scans: the served runs' --workers.
constexpr unsigned kWorkers = 4;

/// Benchmark-side spans around calls into the layers, kept in memory.
class Tracer {
 public:
  struct Layer {
    double ms = 0;
    std::size_t calls = 0;
    std::size_t per = 0;  // ops the time is spread over
  };

  /// Times f() as one span of `layer`, charged to `per` ops.
  template <class F>
  auto span(const char* layer, const std::string& op, std::size_t per, F&& f) {
    const auto start = Clock::now();
    struct Record {
      Tracer& tracer;
      const char* layer;
      const std::string& op;
      std::size_t per;
      Clock::time_point start;
      ~Record() { tracer.record(layer, op, per, start, Clock::now()); }
    } record{*this, layer, op, per, start};
    return f();
  }

  void write_chrome_trace(const std::string& path) const {
    Json::Array events;
    for (const auto& e : events_) {
      Json::Object event;
      event.emplace("name", e.layer);
      event.emplace("cat", "perfbench");
      event.emplace("ph", "X");
      event.emplace("ts", e.start_us);
      event.emplace("dur", e.dur_us);
      event.emplace("pid", 1);
      event.emplace("tid", 1);
      Json::Object args;
      args.emplace("op", e.op);
      event.emplace("args", Json{std::move(args)});
      events.emplace_back(std::move(event));
    }
    Json::Object doc;
    doc.emplace("traceEvents", Json{std::move(events)});
    std::ofstream out{path};
    out << Json{std::move(doc)}.dump() << "\n";
    if (!out) throw std::runtime_error("cannot write " + path);
  }

  [[nodiscard]] const std::map<std::string, Layer>& layers() const { return layers_; }

 private:
  struct Event {
    std::string layer;
    std::string op;
    double start_us = 0;
    double dur_us = 0;
  };

  void record(const char* layer, const std::string& op, std::size_t per, Clock::time_point start,
              Clock::time_point end) {
    const double start_us = std::chrono::duration<double, std::micro>(start - origin_).count();
    const double dur_us = std::chrono::duration<double, std::micro>(end - start).count();
    Layer& entry = layers_[layer];
    entry.ms += dur_us / 1000.0;
    ++entry.calls;
    entry.per += per;
    events_.push_back({layer, op, start_us, dur_us});
  }

  Clock::time_point origin_ = Clock::now();
  std::map<std::string, Layer> layers_;
  std::vector<Event> events_;
};

/// The server-side state a replayed job runs against, set up as
/// `jinjing serve` does: store, FEC cache, incremental planner and the
/// apply hook that feeds them, prewarmed on the head.
struct Service {
  explicit Service(config::NetworkFile network) : store(std::move(network)) {
    store.set_apply_hook([this](const svc::Snapshot& previous, const svc::Snapshot& next,
                                const topo::AclUpdate& update) {
      fec_cache->record_delta(previous.topo.get(), next.topo.get(), 16);
      planner.record_apply(previous.version, next.version, *previous.topo, update);
    });
    const svc::SnapshotPtr head = store.head();
    smt::SmtContext smt;
    core::Checker checker{smt, *head->topo, topo::Scope::whole_network(*head->topo),
                          check_options()};
    planner.install(head->version, topo::Scope::whole_network(*head->topo),
                    checker.share_plan(head->traffic));
  }

  [[nodiscard]] core::CheckOptions check_options() const {
    core::CheckOptions check;
    check.fec_cache = fec_cache;
    return check;
  }

  [[nodiscard]] core::EngineOptions engine_options() const {
    core::EngineOptions engine;
    engine.check = check_options();
    engine.fix.check = check_options();
    engine.generate.fec_cache = fec_cache;
    return engine;
  }

  std::shared_ptr<topo::FecCache> fec_cache = std::make_shared<topo::FecCache>();
  core::IncrementalPlanner planner;
  svc::StateStore store;
};

/// A job on its way through the replayed layers.
struct Job {
  std::string name;  // "<round>.<i> <kind>"
  Op op;
  std::shared_ptr<const lai::UpdateTask> task;
  core::EngineReport report;
};

Json outcome_json(const core::EngineReport& report, const std::string& plan) {
  Json::Object outcome;
  outcome.emplace("success", report.success());
  outcome.emplace("plan", plan);
  Json::Array commands;
  for (const auto& cmd : report.outcomes) {
    Json::Object entry;
    entry.emplace("command", lai::to_string(cmd.command));
    entry.emplace("ok", cmd.ok());
    if (cmd.check) entry.emplace("consistent", cmd.check->consistent);
    commands.emplace_back(std::move(entry));
  }
  outcome.emplace("commands", Json{std::move(commands)});
  Json::Object status;
  status.emplace("job", 1);
  status.emplace("state", "done");
  status.emplace("outcome", Json{std::move(outcome)});
  Json::Object result;
  result.emplace("done", true);
  result.emplace("status", Json{std::move(status)});
  Json::Object response;
  response.emplace("id", 1);
  response.emplace("result", Json{std::move(result)});
  return Json{std::move(response)};
}

class Replay {
 public:
  Replay(const WorkloadSpec& spec, const gen::Wan& wan, std::size_t unit)
      : spec_(spec), wan_(wan), unit_(unit), executor_(kWorkers), service_([&] {
          config::NetworkFile file;
          file.topo = wan.topo;
          file.traffic = wan.traffic;
          // Through the text form, as the server loads it.
          return config::parse_network(config::print_network(file));
        }()) {}

  void run(unsigned seed, std::size_t rounds) {
    for (std::size_t r = 0; r < rounds; ++r) {
      std::vector<Op> ops = round_ops(spec_, wan_, seed, r);
      for (std::size_t i = 0; i < ops.size(); ++i) {
        Job job;
        job.name = std::to_string(r) + "." + std::to_string(i) + " " + to_string(ops[i].kind);
        job.op = std::move(ops[i]);
        if (job.op.kind == OpKind::Apply) {
          apply(job.name);
          continue;
        }
        submit(job);
        if (job.op.apply_candidate) candidate_ = job.task->modify;
        if (job.op.kind == OpKind::Check && spec_.depth > 1) {
          unit_jobs_.push_back(std::move(job));
          if (unit_jobs_.size() == unit_) run_unit();
          continue;
        }
        execute(job);
        finish(job);
      }
    }
    if (!unit_jobs_.empty()) run_unit();
  }

  [[nodiscard]] const Tracer& tracer() const { return tracer_; }
  [[nodiscard]] std::size_t ops() const { return ops_; }

 private:
  /// Client encode, wire parse, ACL-body parse and LAI resolve.
  void submit(Job& job) {
    ++ops_;
    const Op& op = job.op;
    auto bodies = tracer_.span("config.print_acl_ms", job.name, 1, [&] {
      Json::Object acls;
      for (const auto& [name, acl] : op.acls) acls.emplace(name, config::print_acl(acl));
      return acls;
    });
    const std::string line = tracer_.span("svc.json_dump_ms", job.name, 1, [&] {
      Json::Object params;
      params.emplace("program", op.program);
      params.emplace("acls", Json{std::move(bodies)});
      Json::Object request;
      request.emplace("id", 1);
      request.emplace("method", "submit");
      request.emplace("params", Json{std::move(params)});
      return Json{std::move(request)}.dump() + "\n";
    });
    const Json request = tracer_.span("svc.json_parse_ms", job.name, 1,
                                      [&] { return Json::parse(line); });
    const lai::AclLibrary library = tracer_.span("config.parse_acl_ms", job.name, 1, [&] {
      lai::AclLibrary acls;
      acls.emplace("permit_all", net::Acl::permit_all());
      for (const auto& [name, body] : request.at("params").at("acls").as_object()) {
        acls.insert_or_assign(name, config::parse_acl_auto(body.as_string()));
      }
      return acls;
    });
    const svc::SnapshotPtr head = service_.store.head();
    job.task = tracer_.span("lai.parse_resolve_ms", job.name, 1, [&] {
      const std::string& program = request.at("params").at("program").as_string();
      return std::make_shared<const lai::UpdateTask>(
          lai::resolve(lai::parse(program), *head->topo, library));
    });
    job.report.final_update = job.task->modify;
  }

  /// The verdict or plan of a job that runs alone.
  void execute(Job& job) {
    const svc::SnapshotPtr head = service_.store.head();
    const topo::Topology& topo = *head->topo;
    const lai::UpdateTask& task = *job.task;
    switch (job.op.kind) {
      case OpKind::Check:
        tracer_.span("core.incremental.check_ms", job.name, 1, [&] {
          core::IncrementalLease lease = service_.planner.acquire(head->version, task.scope,
                                                                  head->traffic, task.modify);
          core::CheckOptions check = service_.check_options();
          check.adopted_plan = lease.bundle;
          smt::SmtContext smt;
          core::Checker checker{smt, topo, task.scope, check};
          core::CommandOutcome outcome;
          if (lease.valid()) {
            auto incremental = core::run_incremental_check(checker, lease, task.modify);
            service_.planner.commit(head->version, task.scope, head->traffic, task.modify,
                                    incremental.clean);
            outcome.check = std::move(incremental.result);
          } else {
            outcome.check = checker.check(task.modify, head->traffic, {});
          }
          job.report.outcomes.push_back(std::move(outcome));
        });
        break;
      case OpKind::ControlCheck:
        tracer_.span("core.checker.control_check_ms", job.name, 1, [&] {
          smt::SmtContext smt;
          core::Checker checker{smt, topo, task.scope, service_.check_options()};
          core::CommandOutcome outcome;
          outcome.check = checker.check(task.modify, head->traffic, task.controls);
          job.report.outcomes.push_back(std::move(outcome));
        });
        break;
      case OpKind::Fix:
      case OpKind::Generate: {
        const char* layer =
            job.op.kind == OpKind::Fix ? "core.fixer.fix_ms" : "core.generator.generate_ms";
        tracer_.span(layer, job.name, 1, [&] {
          // As the server does: intent-free jobs adopt the cached plan.
          core::EngineOptions options = service_.engine_options();
          if (task.controls.empty()) {
            options.check.adopted_plan = options.fix.check.adopted_plan =
                service_.planner.acquire(head->version, task.scope, head->traffic, task.modify)
                    .bundle;
          }
          core::Engine engine{topo, options};
          for (const lai::Command command : task.commands) {
            job.report.outcomes.push_back(
                engine.run_command(task, command, job.report.final_update, head->traffic));
          }
        });
        break;
      }
      case OpKind::Apply:
        break;
    }
  }

  /// One coalesced unit: the version's batch algebra, then one scan.
  void run_unit() {
    const svc::SnapshotPtr head = service_.store.head();
    const topo::Topology& topo = *head->topo;
    if (!algebra_ || algebra_version_ != head->version) {
      const lai::UpdateTask& task = *unit_jobs_.front().task;
      algebra_ = tracer_.span("core.batch.algebra_build_ms", unit_jobs_.front().name, 1, [&] {
        const auto bundle = service_.planner
                                .acquire(head->version, task.scope, head->traffic, task.modify)
                                .bundle;
        if (!bundle) throw std::runtime_error("no plan bundle for the batch algebra");
        return std::make_shared<const core::BatchAlgebra>(core::build_batch_algebra(topo, bundle));
      });
      algebra_version_ = head->version;
    }
    std::vector<core::BatchItem> items;
    for (const Job& job : unit_jobs_) {
      core::BatchItem item;
      item.update = &job.task->modify;
      items.push_back(std::move(item));
    }
    core::BatchRunOptions options;
    options.executor = &executor_;
    options.max_shards = 2 * kWorkers;
    const auto outcomes = tracer_.span("core.batch.scan_ms", unit_jobs_.front().name,
                                       unit_jobs_.size(), [&] {
                                         return core::run_check_batch(topo, *algebra_, items,
                                                                      options);
                                       });
    for (std::size_t i = 0; i < unit_jobs_.size(); ++i) {
      core::CommandOutcome outcome;
      outcome.check = outcomes[i].result;
      unit_jobs_[i].report.outcomes.push_back(std::move(outcome));
      finish(unit_jobs_[i]);
    }
    unit_jobs_.clear();
  }

  /// Plan text, result encoding and the client's parse of the response.
  void finish(Job& job) {
    const topo::Topology& topo = *service_.store.head()->topo;
    const std::string plan = tracer_.span("core.deploy.format_plan_ms", job.name, 1, [&] {
      return core::format_plan(topo, job.report.final_update);
    });
    const std::string line = tracer_.span("svc.result_encode_ms", job.name, 1, [&] {
      return outcome_json(job.report, plan).dump() + "\n";
    });
    // Charged to no further op: svc.json_parse_ms is request plus response.
    (void)tracer_.span("svc.json_parse_ms", job.name, 0, [&] { return Json::parse(line); });
  }

  void apply(const std::string& name) {
    ++ops_;
    const svc::SnapshotPtr previous = service_.store.head();
    (void)tracer_.span("svc.state_store.apply_ms", name, 1,
                       [&] { return service_.store.apply_update(candidate_); });
    // What the re-check of a pending update re-splits after this apply:
    // every plan class on a rewritten slot that the apply's pooled
    // Definition 4.1 differential meets, refined against it.
    std::vector<topo::AclSlot> slots;
    for (const auto& [slot, acl] : candidate_) slots.push_back(slot);
    const topo::ConfigView before{*previous->topo};
    const topo::ConfigView after{*previous->topo, &candidate_};
    net::PacketSet diff;
    for (const auto& rule : core::scope_differential(before, after, slots)) {
      diff = diff | net::PacketSet{rule.match.cube()};
    }
    const topo::Scope scope = topo::Scope::whole_network(*previous->topo);
    const auto bundle =
        service_.planner.acquire(previous->version, scope, previous->traffic, {}).bundle;
    if (!bundle) throw std::runtime_error("no plan bundle at the applied version");
    tracer_.span("topo.fec_delta.refine_ms", name, 1, [&] {
      for (const core::Obligation& o : bundle->plan.obligations()) {
        const bool on_slot = std::any_of(o.slots.begin(), o.slots.end(), [&](topo::AclSlot s) {
          return candidate_.contains(s);
        });
        if (on_slot && o.fec->intersects(diff)) (void)topo::refine_delta({*o.fec}, {diff});
      }
    });
  }

  const WorkloadSpec& spec_;
  const gen::Wan& wan_;
  const std::size_t unit_;
  core::Executor executor_;
  Service service_;
  Tracer tracer_;
  std::size_t ops_ = 0;
  std::vector<Job> unit_jobs_;
  std::shared_ptr<const core::BatchAlgebra> algebra_;
  svc::Version algebra_version_ = 0;
  topo::AclUpdate candidate_;
};

}  // namespace

svc::Json run_replay(const ReplayConfig& config) {
  const WorkloadSpec spec = workload(config.workload);
  const gen::Wan wan = gen::make_wan(wan_params(spec));
  const std::size_t unit = std::max<std::size_t>(config.unit, 1);
  // Enough rounds for two coalesced units, or a few lone rounds.
  const std::size_t rounds = spec.depth > 1 ? 2 * unit : spec.name == "update_cycle" ? 3 : 6;

  Replay replay{spec, wan, unit};
  const auto start = Clock::now();
  replay.run(config.seed, rounds);
  const double wall = std::chrono::duration<double>(Clock::now() - start).count();
  replay.tracer().write_chrome_trace(config.trace_path);

  Json::Object layers;
  for (const auto& [name, layer] : replay.tracer().layers()) {
    Json::Object entry;
    entry.emplace("ms", layer.ms);
    entry.emplace("calls", static_cast<std::uint64_t>(layer.calls));
    entry.emplace("per", static_cast<std::uint64_t>(layer.per));
    layers.emplace(name, Json{std::move(entry)});
  }
  Json::Object out;
  out.emplace("layers", Json{std::move(layers)});
  out.emplace("wall_s", wall);
  out.emplace("ops", static_cast<std::uint64_t>(replay.ops()));
  return Json{std::move(out)};
}

}  // namespace jinjing::perfbench
