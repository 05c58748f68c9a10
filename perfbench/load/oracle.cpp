#include "oracle.h"

#include <chrono>
#include <map>
#include <memory>
#include <sstream>

#include "config/topology_format.h"
#include "core/batch.h"
#include "core/deploy.h"
#include "core/engine.h"
#include "lai/parser.h"

namespace jinjing::perfbench {
namespace {

lai::UpdateTask resolve(const Op& op, const topo::Topology& topo) {
  lai::AclLibrary library;
  library.emplace("permit_all", net::Acl::permit_all());
  for (const auto& [name, acl] : op.acls) library.insert_or_assign(name, acl);
  return lai::resolve(lai::parse(op.program), topo, library);
}

/// The plan text the service returned ("acl <slot> ... end" blocks) as a
/// check program over the same slots.
Op plan_as_check(const std::string& plan, const topo::Topology& topo) {
  Op op;
  op.program = scope_line(topo);
  std::istringstream lines{plan};
  std::string line, slot, body;
  while (std::getline(lines, line)) {
    if (line.rfind("acl ", 0) == 0) {
      slot = line.substr(4);
      body.clear();
    } else if (line == "end") {
      const std::string name = "plan_" + std::to_string(op.acls.size());
      op.program += "modify " + slot + " to " + name + "\n";
      op.acls.emplace_back(name, config::parse_acl_auto(body));
    } else {
      body += line + "\n";
    }
  }
  op.program += "check\n";
  return op;
}

class Snapshots {
 public:
  Snapshots(const ServedRun& run) : run_(run) {
    base_ = std::make_shared<config::NetworkFile>(config::parse_network(run.network_text));
    topos_.emplace(1, std::shared_ptr<const topo::Topology>(base_, &base_->topo));
  }

  const net::PacketSet& traffic() const { return base_->traffic; }

  /// The topology at `version`: the base with every apply up to it.
  const topo::Topology& at(std::uint64_t version) {
    auto it = topos_.find(version);
    if (it != topos_.end()) return *it->second;
    const topo::Topology& previous = at(version - 1);
    const auto applied = run_.applied.find(version);
    if (applied == run_.applied.end()) {
      throw std::runtime_error("no apply recorded for version " + std::to_string(version));
    }
    auto next = std::make_shared<topo::Topology>(previous);
    for (const auto& [slot, acl] : resolve(applied->second, previous).modify) {
      next->bind_acl(slot, acl);
    }
    return *topos_.emplace(version, std::move(next)).first->second;
  }

 private:
  const ServedRun& run_;
  std::shared_ptr<config::NetworkFile> base_;
  std::map<std::uint64_t, std::shared_ptr<const topo::Topology>> topos_;
};

bool smt_consistent(const topo::Topology& topo, const lai::UpdateTask& task,
                    const net::PacketSet& traffic) {
  smt::SmtContext smt;
  core::Checker checker{smt, topo, task.scope};
  return checker.check(task.modify, traffic, task.controls).consistent;
}

}  // namespace

OracleReport run_oracle(const WorkloadSpec& spec, const ServedRun& run) {
  const auto start = std::chrono::steady_clock::now();
  OracleReport report;
  Snapshots snapshots{run};
  const net::PacketSet& traffic = snapshots.traffic();
  std::map<std::uint64_t, core::BatchAlgebra> algebras;
  const auto batch_consistent = [&](std::uint64_t version, const topo::Topology& topo,
                                    const lai::UpdateTask& task) {
    auto it = algebras.find(version);
    if (it == algebras.end()) {
      smt::SmtContext smt;
      core::Checker checker{smt, topo, task.scope};
      it = algebras.emplace(version, core::build_batch_algebra(topo, checker.share_plan(traffic)))
               .first;
    }
    core::BatchItem item;
    item.update = &task.modify;
    return core::run_check_batch(topo, it->second, {item}).front().result.consistent;
  };
  // Whole-network scope throughout, so one algebra per version serves all.
  const bool coalesced = spec.depth > 1;

  for (const Record& record : run.records) {
    std::string problem;
    try {
      const topo::Topology& topo = snapshots.at(record.snapshot);
      const lai::UpdateTask task = resolve(record.op, topo);
      const std::string modify_plan = core::format_plan(topo, task.modify);
      switch (record.op.kind) {
        case OpKind::Check: {
          const bool consistent = coalesced ? smt_consistent(topo, task, traffic)
                                            : batch_consistent(record.snapshot, topo, task);
          if (record.consistent != std::vector<bool>{consistent}) problem = "verdict differs";
          if (record.plan != modify_plan) problem += " plan differs";
          break;
        }
        case OpKind::ControlCheck:
        case OpKind::Generate: {
          core::Engine engine{topo};
          const core::EngineReport fresh = engine.run(task, traffic);
          std::vector<bool> consistent;
          for (const auto& outcome : fresh.outcomes) {
            if (outcome.check) consistent.push_back(outcome.check->consistent);
          }
          if (consistent != record.consistent) problem = "verdict differs";
          if (fresh.success() != record.success) problem += " success differs";
          if (core::format_plan(topo, fresh.final_update) != record.plan) problem += " plan differs";
          break;
        }
        case OpKind::Fix: {
          const lai::UpdateTask repaired = resolve(plan_as_check(record.plan, topo), topo);
          if (!batch_consistent(record.snapshot, topo, repaired)) {
            problem = "repaired plan is inconsistent";
          }
          break;
        }
        case OpKind::Apply:
          break;
      }
    } catch (const std::exception& e) {
      problem = std::string("oracle error: ") + e.what();
    }
    ++report.checked[static_cast<std::size_t>(record.op.kind)];
    if (!problem.empty()) {
      ++report.mismatches;
      if (report.failures.size() < 8) {
        report.failures.push_back(std::string(to_string(record.op.kind)) + " in round " +
                                  std::to_string(record.round) + ": " + problem);
      }
    }
  }
  report.seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  return report;
}

}  // namespace jinjing::perfbench
