#include "fault/plan.hpp"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cmath>
#include <map>
#include <sstream>
#include <utility>

#include "arch/gpu_spec.hpp"
#include "core/error.hpp"
#include "sim/engine.hpp"

namespace pvc::fault {

namespace {

[[nodiscard]] std::string_view trim(std::string_view s) {
  while (!s.empty() && std::isspace(static_cast<unsigned char>(s.front()))) {
    s.remove_prefix(1);
  }
  while (!s.empty() && std::isspace(static_cast<unsigned char>(s.back()))) {
    s.remove_suffix(1);
  }
  return s;
}

[[nodiscard]] std::vector<std::string_view> split(std::string_view s,
                                                  char sep) {
  std::vector<std::string_view> parts;
  while (!s.empty()) {
    const auto pos = s.find(sep);
    parts.push_back(trim(s.substr(0, pos)));
    if (pos == std::string_view::npos) {
      break;
    }
    s.remove_prefix(pos + 1);
  }
  return parts;
}

[[noreturn]] void bad_clause(std::string_view clause, const std::string& why) {
  raise(ErrorCode::InvalidArgument,
        "FaultPlan: bad clause '" + std::string(clause) + "': " + why +
            " (grammar: docs/ROBUSTNESS.md)");
}

/// `text` as a finite double; std::from_chars also reads `nan` and
/// `inf`, which would slip past every range check below.
[[nodiscard]] std::optional<double> finite_double(std::string_view text) {
  double value = 0.0;
  const auto [ptr, ec] =
      std::from_chars(text.data(), text.data() + text.size(), value);
  if (ec != std::errc{} || ptr != text.data() + text.size() ||
      !std::isfinite(value)) {
    return std::nullopt;
  }
  return value;
}

[[nodiscard]] double parse_double(std::string_view clause,
                                  std::string_view text) {
  const std::optional<double> value = finite_double(text);
  if (!value) {
    bad_clause(clause, "'" + std::string(text) + "' is not a finite number");
  }
  return *value;
}

/// `123`, `1.5ms`, `2us`, `30ns`, `0.25s` in seconds.
[[nodiscard]] double parse_duration(std::string_view clause,
                                    std::string_view text) {
  std::string_view number = text;
  double scale = 1.0;
  if (number.ends_with("ns")) {
    scale = 1e-9;
    number.remove_suffix(2);
  } else if (number.ends_with("us")) {
    scale = 1e-6;
    number.remove_suffix(2);
  } else if (number.ends_with("ms")) {
    scale = 1e-3;
    number.remove_suffix(2);
  } else if (number.ends_with("s")) {
    number.remove_suffix(1);
  }
  const std::optional<double> value = finite_double(number);
  if (!value) {
    bad_clause(clause, "'" + std::string(text) +
                           "' is not a finite duration (want e.g. 1.5ms, "
                           "2us, 0.25s)");
  }
  return *value * scale;
}

[[nodiscard]] int parse_int(std::string_view clause, std::string_view text) {
  int value = 0;
  const auto [ptr, ec] =
      std::from_chars(text.data(), text.data() + text.size(), value);
  if (ec != std::errc{} || ptr != text.data() + text.size()) {
    bad_clause(clause, "'" + std::string(text) + "' is not an integer");
  }
  return value;
}

[[nodiscard]] std::uint64_t parse_u64(std::string_view clause,
                                      std::string_view text) {
  std::uint64_t value = 0;
  const auto [ptr, ec] =
      std::from_chars(text.data(), text.data() + text.size(), value);
  if (ec != std::errc{} || ptr != text.data() + text.size()) {
    bad_clause(clause, "'" + std::string(text) + "' is not a seed");
  }
  return value;
}

/// `k=v,k=v` (or a single bare value under `shorthand_key`) → map.
class Args {
 public:
  Args(std::string_view clause, std::string_view body,
       std::string_view shorthand_key)
      : clause_(clause) {
    for (std::string_view part : split(body, ',')) {
      if (part.empty()) {
        continue;
      }
      const auto eq = part.find('=');
      if (eq == std::string_view::npos) {
        if (shorthand_key.empty() || !kv_.empty()) {
          bad_clause(clause_, "expected key=value, got '" +
                                  std::string(part) + "'");
        }
        kv_.emplace(std::string(shorthand_key), part);
        continue;
      }
      const auto key = trim(part.substr(0, eq));
      const auto value = trim(part.substr(eq + 1));
      if (key.empty() || value.empty()) {
        bad_clause(clause_,
                   "empty key or value in '" + std::string(part) + "'");
      }
      if (!kv_.emplace(std::string(key), value).second) {
        bad_clause(clause_, "duplicate key '" + std::string(key) + "'");
      }
    }
  }

  ~Args() = default;
  Args(const Args&) = delete;
  Args& operator=(const Args&) = delete;

  [[nodiscard]] bool has(const std::string& key) const {
    return kv_.contains(key);
  }
  [[nodiscard]] std::string_view required(const std::string& key) {
    const auto it = kv_.find(key);
    if (it == kv_.end()) {
      bad_clause(clause_, "missing required key '" + key + "'");
    }
    used_.push_back(key);
    return it->second;
  }
  [[nodiscard]] std::string_view optional(const std::string& key,
                                          std::string_view fallback) {
    const auto it = kv_.find(key);
    if (it == kv_.end()) {
      return fallback;
    }
    used_.push_back(key);
    return it->second;
  }

  /// Rejects keys the clause does not understand (typo defence).
  void finish() {
    for (const auto& [key, value] : kv_) {
      if (std::find(used_.begin(), used_.end(), key) == used_.end()) {
        bad_clause(clause_, "unknown key '" + key + "'");
      }
    }
  }

 private:
  std::string_view clause_;
  std::map<std::string, std::string_view> kv_;
  std::vector<std::string> used_;
};

[[nodiscard]] double parse_probability(std::string_view clause,
                                       std::string_view text) {
  const double p = parse_double(clause, text);
  if (p < 0.0 || p > 1.0) {
    bad_clause(clause, "probability must be in [0, 1]");
  }
  return p;
}

[[nodiscard]] double parse_factor(std::string_view clause,
                                  std::string_view text) {
  const double f = parse_double(clause, text);
  if (f <= 0.0 || f > 1.0) {
    bad_clause(clause, "factor must be in (0, 1]");
  }
  return f;
}

/// Rejects a fault edge at `t_s` that the calendar would never reach:
/// Engine::run and Engine::step stop at Engine::kHorizon, so such a
/// clause would be armed and then do nothing.
void check_within_horizon(std::string_view clause, double t_s) {
  if (t_s > sim::Engine::kHorizon) {
    bad_clause(clause, "it acts past the 1e300 s simulation horizon, "
                       "where no event runs");
  }
}

struct Window {
  double at_s = 0.0;
  double duration_s = 0.0;
  bool permanent = true;
};

[[nodiscard]] Window parse_window(std::string_view clause, Args& args) {
  Window w;
  w.at_s = parse_duration(clause, args.optional("at", "0"));
  if (args.has("for")) {
    w.duration_s = parse_duration(clause, args.required("for"));
    if (w.duration_s <= 0.0) {
      bad_clause(clause, "'for' duration must be positive");
    }
    w.permanent = false;
  }
  if (w.at_s < 0.0) {
    bad_clause(clause, "'at' time must be non-negative");
  }
  check_within_horizon(clause, w.permanent ? w.at_s : w.at_s + w.duration_s);
  return w;
}

void append_window(std::ostringstream& out, double at_s, double duration_s,
                   bool permanent) {
  out << " at " << at_s << " s";
  if (permanent) {
    out << " (permanent)";
  } else {
    out << " for " << duration_s << " s";
  }
}

/// A parsed clause the bench cannot apply: InvalidArgument naming it.
[[noreturn]] void reject_clause(const std::string& clause,
                                const std::string& why) {
  raise(ErrorCode::InvalidArgument,
        "FaultPlan: clause '" + clause + "' " + why + " (docs/ROBUSTNESS.md)");
}

}  // namespace

const char* recovery_policy_name(RecoveryPolicy policy) {
  switch (policy) {
    case RecoveryPolicy::Shrink:
      return "shrink";
    case RecoveryPolicy::Spare:
      return "spare";
  }
  return "?";
}

FaultPlan FaultPlan::parse(std::string_view spec) {
  FaultPlan plan;
  for (std::string_view clause : split(spec, ';')) {
    if (clause.empty()) {
      continue;
    }
    const auto colon = clause.find(':');
    const std::string_view name = trim(clause.substr(0, colon));
    const std::string_view body =
        colon == std::string_view::npos ? std::string_view{}
                                        : clause.substr(colon + 1);

    if (name == "seed") {
      Args args(clause, body, "seed");
      plan.seed = parse_u64(clause, args.required("seed"));
      args.finish();
    } else if (name == "linkdown") {
      Args args(clause, body, "");
      LinkDownEvent ev;
      ev.a = parse_int(clause, args.required("a"));
      ev.b = parse_int(clause, args.required("b"));
      const Window w = parse_window(clause, args);
      ev.at_s = w.at_s;
      ev.duration_s = w.duration_s;
      ev.permanent = w.permanent;
      args.finish();
      plan.linkdowns.push_back(ev);
    } else if (name == "flap") {
      Args args(clause, body, "");
      FlapSpec fl;
      fl.a = parse_int(clause, args.required("a"));
      fl.b = parse_int(clause, args.required("b"));
      fl.period_s = parse_duration(clause, args.required("period"));
      fl.duty = parse_double(clause, args.optional("duty", "0.5"));
      fl.count = parse_int(clause, args.optional("count", "1"));
      fl.at_s = parse_duration(clause, args.optional("at", "0"));
      args.finish();
      if (fl.period_s <= 0.0) {
        bad_clause(clause, "'period' must be positive");
      }
      if (fl.duty <= 0.0 || fl.duty >= 1.0) {
        bad_clause(clause, "'duty' must be in (0, 1)");
      }
      if (fl.count < 1) {
        bad_clause(clause, "'count' must be >= 1");
      }
      if (fl.at_s < 0.0) {
        bad_clause(clause, "'at' time must be non-negative");
      }
      // The last up edge, as Injector::arm schedules it.
      check_within_horizon(clause, fl.at_s + (fl.count - 1) * fl.period_s +
                                       fl.duty * fl.period_s);
      plan.flaps.push_back(fl);
    } else if (name == "degrade") {
      Args args(clause, body, "");
      DegradeEvent ev;
      ev.a = parse_int(clause, args.required("a"));
      ev.b = parse_int(clause, args.required("b"));
      ev.factor = parse_factor(clause, args.required("factor"));
      const Window w = parse_window(clause, args);
      ev.at_s = w.at_s;
      ev.duration_s = w.duration_s;
      ev.permanent = w.permanent;
      args.finish();
      plan.degradations.push_back(ev);
    } else if (name == "nicdown") {
      Args args(clause, body, "");
      NicDownEvent ev;
      ev.node = parse_int(clause, args.required("node"));
      ev.nic = parse_int(clause, args.required("nic"));
      const Window w = parse_window(clause, args);
      ev.at_s = w.at_s;
      ev.duration_s = w.duration_s;
      ev.permanent = w.permanent;
      args.finish();
      if (ev.node < 0 || ev.nic < 0) {
        bad_clause(clause, "'node' and 'nic' must be non-negative");
      }
      plan.nic_downs.push_back(ev);
    } else if (name == "nicdegrade") {
      Args args(clause, body, "");
      NicDegradeEvent ev;
      ev.node = parse_int(clause, args.required("node"));
      ev.nic = parse_int(clause, args.required("nic"));
      ev.factor = parse_factor(clause, args.required("factor"));
      const Window w = parse_window(clause, args);
      ev.at_s = w.at_s;
      ev.duration_s = w.duration_s;
      ev.permanent = w.permanent;
      args.finish();
      if (ev.node < 0 || ev.nic < 0) {
        bad_clause(clause, "'node' and 'nic' must be non-negative");
      }
      plan.nic_degradations.push_back(ev);
    } else if (name == "nodedown") {
      Args args(clause, body, "node");
      NodeDownEvent ev;
      ev.node = parse_int(clause, args.required("node"));
      const Window w = parse_window(clause, args);
      ev.at_s = w.at_s;
      ev.duration_s = w.duration_s;
      ev.permanent = w.permanent;
      args.finish();
      if (ev.node < 0) {
        bad_clause(clause, "'node' must be non-negative");
      }
      plan.node_downs.push_back(ev);
    } else if (name == "rankfail") {
      Args args(clause, body, "rank");
      RankFailEvent ev;
      ev.rank = parse_int(clause, args.required("rank"));
      ev.at_s = parse_duration(clause, args.optional("at", "0"));
      args.finish();
      if (ev.rank < 0) {
        bad_clause(clause, "'rank' must be non-negative");
      }
      if (ev.at_s < 0.0) {
        bad_clause(clause, "'at' time must be non-negative");
      }
      check_within_horizon(clause, ev.at_s);
      plan.rank_fails.push_back(ev);
    } else if (name == "ckpt") {
      Args args(clause, body, "bytes");
      CheckpointPlan ck;
      ck.bytes_per_rank = parse_double(clause, args.required("bytes"));
      ck.interval_s = parse_duration(clause, args.optional("interval", "0"));
      ck.restart_s = parse_duration(clause, args.optional("restart", "0"));
      ck.mtbf_s = parse_duration(clause, args.optional("mtbf", "0"));
      args.finish();
      if (ck.bytes_per_rank <= 0.0) {
        bad_clause(clause, "'bytes' must be positive");
      }
      if (ck.interval_s < 0.0 || ck.restart_s < 0.0 || ck.mtbf_s < 0.0) {
        bad_clause(clause, "durations must be non-negative");
      }
      plan.checkpoint = ck;
    } else if (name == "drop") {
      Args args(clause, body, "p");
      plan.drop_probability = parse_probability(clause, args.required("p"));
      args.finish();
    } else if (name == "corrupt") {
      Args args(clause, body, "p");
      plan.corrupt_probability = parse_probability(clause, args.required("p"));
      args.finish();
    } else if (name == "reroute") {
      Args args(clause, body, "penalty");
      const double penalty =
          parse_double(clause, args.required("penalty"));
      if (penalty <= 0.0 || penalty > 1.0) {
        bad_clause(clause, "penalty must be in (0, 1]");
      }
      plan.reroute_penalty = penalty;
      args.finish();
    } else if (name == "retries") {
      Args args(clause, body, "max");
      plan.max_retries = parse_int(clause, args.required("max"));
      if (*plan.max_retries < 0) {
        bad_clause(clause, "'max' must be non-negative");
      }
      if (args.has("backoff")) {
        plan.retry_backoff_s =
            parse_duration(clause, args.required("backoff"));
        if (*plan.retry_backoff_s < 0.0) {
          bad_clause(clause, "'backoff' must be non-negative");
        }
      }
      if (args.has("maxbackoff")) {
        plan.max_backoff_s =
            parse_duration(clause, args.required("maxbackoff"));
        if (*plan.max_backoff_s < 0.0) {
          bad_clause(clause, "'maxbackoff' must be non-negative");
        }
      }
      args.finish();
    } else {
      bad_clause(clause, "unknown clause name '" + std::string(name) + "'");
    }
  }
  if (plan.drop_probability + plan.corrupt_probability > 1.0) {
    raise(ErrorCode::InvalidArgument,
          "FaultPlan: drop + corrupt probabilities exceed 1");
  }
  return plan;
}

void check_cluster_plan(const FaultPlan& plan, const ClusterExtent& largest,
                        bool recovers) {
  const std::pair<bool, const char*> node_level[] = {
      {!plan.linkdowns.empty(), "linkdown"},
      {!plan.flaps.empty(), "flap"},
      {!plan.degradations.empty(), "degrade"},
      {plan.drop_probability > 0.0, "drop"},
      {plan.corrupt_probability > 0.0, "corrupt"},
      {plan.reroute_penalty.has_value(), "reroute"},
      {plan.max_retries.has_value(), "retries"},
  };
  for (const auto& [present, clause] : node_level) {
    if (present) {
      reject_clause(clause,
                    "acts on a single node, and this bench runs cluster "
                    "simulations only");
    }
  }
  if (plan.checkpoint && !recovers) {
    reject_clause("ckpt", "is never read by this bench");
  }

  // `count` `what`s exist in `scope`; `index` must name one of them.
  const auto require_exists = [&](const std::string& clause,
                                  const std::string& what, int index,
                                  int count, const std::string& scope) {
    if (index < count) {
      return;
    }
    reject_clause(clause,
                  largest.ranks == 0
                      ? "targets a cluster, but these options arm none"
                      : "names " + what + " " + std::to_string(index) +
                            ", but " + scope + " has " +
                            std::to_string(count) + " " + what + "s");
  };
  const std::string cluster = "the largest cluster this bench arms";
  const auto check_nic = [&](const char* name, int node, int nic) {
    const std::string clause = std::string(name) + ":node=" +
                               std::to_string(node) + ",nic=" +
                               std::to_string(nic);
    require_exists(clause, "node", node, largest.nodes, cluster);
    require_exists(clause, "NIC", nic, largest.nics_per_node, "each node");
  };
  for (const auto& ev : plan.nic_downs) {
    check_nic("nicdown", ev.node, ev.nic);
  }
  for (const auto& ev : plan.nic_degradations) {
    check_nic("nicdegrade", ev.node, ev.nic);
  }
  for (const auto& ev : plan.node_downs) {
    const std::string clause = "nodedown:node=" + std::to_string(ev.node);
    if (!recovers) {
      reject_clause(clause,
                    "kills the node's ranks, and this bench runs no recovery");
    }
    require_exists(clause, "node", ev.node, largest.nodes, cluster);
  }
  for (const auto& ev : plan.rank_fails) {
    const std::string clause = "rankfail:rank=" + std::to_string(ev.rank);
    if (!recovers) {
      reject_clause(clause, "kills a rank, and this bench runs no recovery");
    }
    require_exists(clause, "rank", ev.rank, largest.ranks, cluster);
  }
}

void check_node_plan(const FaultPlan& plan, const arch::NodeSpec& node) {
  const std::pair<bool, const char*> cluster_only[] = {
      {!plan.nic_downs.empty(), "nicdown"},
      {!plan.nic_degradations.empty(), "nicdegrade"},
      {!plan.node_downs.empty(), "nodedown"},
      {!plan.rank_fails.empty(), "rankfail"},
      {plan.checkpoint.has_value(), "ckpt"},
  };
  for (const auto& [present, clause] : cluster_only) {
    if (present) {
      reject_clause(clause,
                    "acts on a cluster, and this bench simulates one node");
    }
  }

  const int devices = node.total_subdevices();
  // An Xe-Link joins two subdevices on different cards; the two stacks
  // of one card share MDFI instead.
  const auto check_pair = [&](const char* name, int a, int b) {
    const std::string clause = std::string(name) + ":a=" + std::to_string(a) +
                               ",b=" + std::to_string(b);
    for (const int device : {a, b}) {
      if (device < 0 || device >= devices) {
        reject_clause(clause, "names subdevice " + std::to_string(device) +
                                  ", but the " + node.system_name +
                                  " node has " + std::to_string(devices) +
                                  " subdevices");
      }
    }
    const int per_card = node.card.subdevice_count;
    if (a / per_card == b / per_card) {
      reject_clause(clause, "puts both ends on card " +
                                std::to_string(a / per_card) +
                                ", and an Xe-Link joins different cards");
    }
  };
  for (const auto& ev : plan.linkdowns) {
    check_pair("linkdown", ev.a, ev.b);
  }
  for (const auto& fl : plan.flaps) {
    check_pair("flap", fl.a, fl.b);
  }
  for (const auto& ev : plan.degradations) {
    check_pair("degrade", ev.a, ev.b);
  }
}

bool FaultPlan::empty() const {
  return linkdowns.empty() && flaps.empty() && degradations.empty() &&
         nic_downs.empty() && nic_degradations.empty() &&
         node_downs.empty() && rank_fails.empty() &&
         !checkpoint.has_value() && drop_probability == 0.0 &&
         corrupt_probability == 0.0 && !reroute_penalty.has_value() &&
         !max_retries.has_value() && !retry_backoff_s.has_value() &&
         !max_backoff_s.has_value();
}

std::string FaultPlan::summary() const {
  std::ostringstream out;
  out << "fault plan (seed " << seed << ")\n";
  for (const auto& ev : linkdowns) {
    out << "  linkdown " << ev.a << "<->" << ev.b;
    append_window(out, ev.at_s, ev.duration_s, ev.permanent);
    out << "\n";
  }
  for (const auto& fl : flaps) {
    out << "  flap " << fl.a << "<->" << fl.b << " x" << fl.count
        << " period " << fl.period_s << " s duty " << fl.duty << " from "
        << fl.at_s << " s\n";
  }
  for (const auto& ev : degradations) {
    out << "  degrade " << ev.a << "<->" << ev.b << " to " << ev.factor
        << "x";
    append_window(out, ev.at_s, ev.duration_s, ev.permanent);
    out << "\n";
  }
  for (const auto& ev : nic_downs) {
    out << "  nicdown node " << ev.node << " nic " << ev.nic;
    append_window(out, ev.at_s, ev.duration_s, ev.permanent);
    out << "\n";
  }
  for (const auto& ev : nic_degradations) {
    out << "  nicdegrade node " << ev.node << " nic " << ev.nic << " to "
        << ev.factor << "x";
    append_window(out, ev.at_s, ev.duration_s, ev.permanent);
    out << "\n";
  }
  for (const auto& ev : node_downs) {
    out << "  nodedown node " << ev.node;
    append_window(out, ev.at_s, ev.duration_s, ev.permanent);
    out << "\n";
  }
  for (const auto& ev : rank_fails) {
    out << "  rankfail rank " << ev.rank << " at " << ev.at_s << " s\n";
  }
  if (checkpoint) {
    out << "  ckpt " << checkpoint->bytes_per_rank << " B/rank interval ";
    if (checkpoint->interval_s > 0.0) {
      out << checkpoint->interval_s << " s";
    } else {
      out << "daly-optimal";
    }
    out << " restart " << checkpoint->restart_s << " s mtbf "
        << checkpoint->mtbf_s << " s\n";
  }
  if (drop_probability > 0.0) {
    out << "  drop p=" << drop_probability << "\n";
  }
  if (corrupt_probability > 0.0) {
    out << "  corrupt p=" << corrupt_probability << "\n";
  }
  if (reroute_penalty) {
    out << "  reroute penalty " << *reroute_penalty << "\n";
  }
  if (max_retries) {
    out << "  retries max " << *max_retries;
    if (retry_backoff_s) {
      out << " backoff " << *retry_backoff_s << " s";
    }
    if (max_backoff_s) {
      out << " maxbackoff " << *max_backoff_s << " s";
    }
    out << "\n";
  }
  if (empty()) {
    out << "  (no faults)\n";
  }
  return out.str();
}

}  // namespace pvc::fault
