// perfbench — the in-process half of perfbench/run.py (see perfbench/README.md).
//
// run.py generates every input from the workload seed and hands it here as
// one JSON file; this binary runs it in-process against the quarc library
// and prints one compact JSON result line on stdout. Subcommands:
//
//   perfbench env                      build environment block
//   perfbench curves <input.json>      model_curves / sim_curves: untraced
//                                      curves, or (trace) the per-layer
//                                      replay of the same curves
//   perfbench serve-replay <input.json>
//                                      serve_mixed: replays a request
//                                      stream through the functions
//                                      batch::serve() calls, per layer
//   perfbench record <input.json>      reference values for a curve
//                                      catalogue or a serve rate lattice
//
// The traced replays time the library's public functions from outside,
// once each, in the order Scenario::run_sweep and serve() call them; no
// code inside the library is instrumented.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <exception>
#include <fstream>
#include <iostream>
#include <limits>
#include <map>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "quarc/api/registry.hpp"
#include "quarc/api/result_set.hpp"
#include "quarc/api/scenario.hpp"
#include "quarc/batch/artifact_cache.hpp"
#include "quarc/batch/batch_runner.hpp"
#include "quarc/batch/scenario_set.hpp"
#include "quarc/batch/serve.hpp"
#include "quarc/model/flow_graph.hpp"
#include "quarc/model/latency_stencil.hpp"
#include "quarc/model/solver.hpp"
#include "quarc/route/route_plan.hpp"
#include "quarc/sim/simulator.hpp"
#include "quarc/sweep/sweep.hpp"
#include "quarc/sweep/sweep_cache.hpp"
#include "quarc/util/json.hpp"
#include "quarc/util/parallel.hpp"
#include "quarc/util/rng.hpp"

namespace {

using quarc::json::Value;
using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

std::vector<std::string> read_lines(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::vector<std::string> lines;
  for (std::string line; std::getline(in, line);) {
    if (!line.empty()) lines.push_back(line);
  }
  return lines;
}

/// Peak resident set of this process (VmHWM), in MB.
double peak_rss_mb() {
  std::ifstream in("/proc/self/status");
  for (std::string line; std::getline(in, line);) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;
  }
  return 0.0;
}

Value number_array(const std::vector<double>& xs) {
  Value a = Value::array();
  for (const double x : xs) a.push_back(x);
  return a;
}

double number_or_nan(const Value& v) {
  return v.is_null() ? std::numeric_limits<double>::quiet_NaN() : v.as_double();
}

Value finite_or_null(double v) { return std::isfinite(v) ? Value(v) : Value(nullptr); }

/// |a - b| <= rtol * max(|a|, |b|); NaN matches NaN, +-inf matches itself.
bool close(double a, double b, double rtol) {
  if (std::isnan(a) || std::isnan(b)) return std::isnan(a) && std::isnan(b);
  if (a == b) return true;
  return std::fabs(a - b) <= rtol * std::max(std::fabs(a), std::fabs(b));
}

// ------------------------------------------------------------------ cells

/// One curve of a catalogue: an auto grid (points/fill) or explicit rates.
struct Cell {
  std::string topology;
  std::string pattern;
  double alpha = 0.0;
  std::uint64_t seed = 1;
  int msg = 32;
  int points = 0;
  double fill = 0.85;
  std::vector<double> rates;
  bool sim = false;
  std::int64_t warmup = 5000;
  std::int64_t measure = 40000;
};

Cell parse_cell(const Value& v) {
  Cell c;
  c.topology = v.at("topology").as_string();
  c.pattern = v.at("pattern").as_string();
  c.alpha = v.at("alpha").as_double();
  c.seed = v.at("seed").as_uint();
  c.msg = static_cast<int>(v.at("msg").as_int());
  if (const Value* r = v.find("rates")) {
    for (const Value& x : r->as_array()) c.rates.push_back(x.as_double());
  } else {
    c.points = static_cast<int>(v.at("points").as_int());
    c.fill = v.at("fill").as_double();
  }
  if (const Value* s = v.find("sim")) c.sim = s->as_bool();
  if (const Value* w = v.find("warmup")) c.warmup = w->as_int();
  if (const Value* m = v.find("measure")) c.measure = m->as_int();
  return c;
}

std::string describe(const Cell& c) {
  std::ostringstream os;
  os << c.topology << " " << c.pattern << " alpha=" << c.alpha << " seed=" << c.seed
     << (c.sim ? " sim" : "");
  return os.str();
}

/// The Scenario one `quarcnoc --sweep` / `--rates` call builds for the cell:
/// fresh, no sweep cache, no artifact cache.
quarc::api::Scenario make_scenario(const Cell& c, int threads) {
  quarc::api::Scenario s;
  s.topology(c.topology)
      .pattern(c.alpha > 0.0 ? c.pattern : "none")
      .alpha(c.alpha)
      .message_length(c.msg)
      .seed(c.seed)
      .warmup(c.warmup)
      .measure(c.measure)
      .with_sim(c.sim)
      .threads(threads);
  return s;
}

quarc::api::ResultSet run_curve(const Cell& c, int threads) {
  quarc::api::Scenario s = make_scenario(c, threads);
  return c.rates.empty() ? s.run_sweep(c.points, c.fill) : s.run_sweep(c.rates);
}

std::string to_document(const quarc::api::ResultSet& rs) {
  std::ostringstream os;
  rs.write_json(os);
  return os.str();
}

// -------------------------------------------------------------- reference

/// One reference row, recorded from the seed commit by `record`.
struct RefRow {
  double rate = 0.0;
  double unicast = 0.0;
  double multicast = 0.0;
  double max_util = 0.0;
  bool sim = false;
  bool sim_completed = false;
  bool sim_stable = false;
  double sim_unicast = 0.0;
  double sim_multicast = 0.0;
  std::int64_t sim_unicast_count = 0;
  std::int64_t sim_multicast_count = 0;
  std::int64_t sim_messages = 0;
  std::int64_t sim_cycles = 0;
  std::int64_t flits = 0;  ///< SimResult::flits_absorbed
};

std::vector<std::vector<RefRow>> parse_reference(const Value& doc) {
  std::vector<std::vector<RefRow>> cells;
  for (const Value& cell : doc.at("cells").as_array()) {
    std::vector<RefRow> rows;
    for (const Value& r : cell.at("rows").as_array()) {
      RefRow row;
      row.rate = r.at("rate").as_double();
      row.unicast = number_or_nan(r.at("unicast"));
      row.multicast = number_or_nan(r.at("multicast"));
      row.max_util = number_or_nan(r.at("max_util"));
      if (const Value* s = r.find("sim")) {
        row.sim = true;
        row.sim_completed = s->at("completed").as_bool();
        row.sim_stable = s->at("stable").as_bool();
        row.sim_unicast = number_or_nan(s->at("unicast"));
        row.sim_multicast = number_or_nan(s->at("multicast"));
        row.sim_unicast_count = s->at("unicast_count").as_int();
        row.sim_multicast_count = s->at("multicast_count").as_int();
        row.sim_messages = s->at("messages").as_int();
        row.sim_cycles = s->at("cycles").as_int();
        row.flits = s->at("flits").as_int();
      }
      rows.push_back(row);
    }
    cells.push_back(std::move(rows));
  }
  return cells;
}

/// Checks one result row against its reference row. Every grid rate lies
/// below the certified saturation rate, so a non-converged model point is
/// a failure too. Returns an empty string when the row matches.
std::string check_row(const quarc::api::ResultRow& row, const RefRow& ref, bool multicast,
                      double rtol) {
  std::ostringstream why;
  if (!close(row.rate, ref.rate, rtol)) why << " rate " << row.rate << "!=" << ref.rate;
  if (row.model_status != "converged") why << " model status " << row.model_status;
  if (!close(row.model_unicast_latency, ref.unicast, rtol)) why << " model unicast";
  if (multicast && !close(row.model_multicast_latency, ref.multicast, rtol)) {
    why << " model multicast";
  }
  if (!close(row.model_max_utilization, ref.max_util, rtol)) why << " model max_util";
  if (ref.sim) {
    if (!row.sim_run) why << " sim missing";
    if (row.sim_completed != ref.sim_completed || row.sim_stable != ref.sim_stable) {
      why << " sim flags";
    }
    if (row.sim_unicast_count != ref.sim_unicast_count ||
        row.sim_multicast_count != ref.sim_multicast_count ||
        row.sim_messages_generated != ref.sim_messages || row.sim_cycles != ref.sim_cycles) {
      why << " sim counts";
    }
    if (!close(row.sim_unicast_latency, ref.sim_unicast, rtol)) why << " sim unicast";
    if (multicast && !close(row.sim_multicast_latency, ref.sim_multicast, rtol)) {
      why << " sim multicast";
    }
  }
  return why.str();
}

/// |model - sim| / sim multicast latency in percent, for stable, completed
/// simulated rows; NaN otherwise.
double model_error_pct(const quarc::api::ResultRow& row) {
  if (!row.sim_run || !row.sim_completed || !row.sim_stable) return std::nan("");
  const double m = row.model_multicast_latency;
  const double s = row.sim_multicast_latency;
  if (!std::isfinite(m) || !std::isfinite(s) || s <= 0.0) return std::nan("");
  return 100.0 * std::fabs(m - s) / s;
}

// ---------------------------------------------------------- failure tally

struct Tally {
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::vector<std::string> failures;  ///< first few, for the report

  void fail(std::string why, std::int64_t n = 1) {
    failed += n;
    if (failures.size() < 8) failures.push_back(std::move(why));
  }
  void write(Value& out) const {
    out.set("attempted", attempted);
    out.set("failed", failed);
    Value f = Value::array();
    for (const std::string& s : failures) f.push_back(s);
    out.set("failures", std::move(f));
  }
};

// ------------------------------------------------------ per-layer tracing

/// Per-round stage accumulators of the traced replays. `attributed` sums
/// the once-each stages a request or curve is made of.
struct Round {
  std::map<std::string, double> ms;
  std::map<std::string, std::int64_t> counts;
  double attributed_ms = 0.0;

  template <typename Fn>
  void stage(const std::string& name, Fn&& fn) {
    const auto t0 = Clock::now();
    fn();
    const double dt = ms_since(t0);
    ms[name] += dt;
    attributed_ms += dt;
  }
  void extra(const std::string& name, double dt) { ms[name] += dt; }
  void count(const std::string& name, std::int64_t n) { counts[name] += n; }
};

/// Collects rounds: every time as one value per round, every count once —
/// and whether the counts repeated exactly in every round.
struct TraceLog {
  std::map<std::string, std::vector<double>> ms;
  std::map<std::string, std::int64_t> counts;
  bool counts_stable = true;
  std::vector<double> traced_ms;    ///< attributed stage sum per round
  std::vector<double> untraced_ms;  ///< the same work untraced, per round
  int rounds = 0;

  void add(const Round& r, double untraced) {
    for (const auto& [k, v] : r.ms) ms[k].push_back(v);
    if (rounds == 0) {
      counts = r.counts;
    } else if (counts != r.counts) {
      counts_stable = false;
    }
    traced_ms.push_back(r.attributed_ms);
    untraced_ms.push_back(untraced);
    ++rounds;
  }
  void write(Value& out) const {
    Value t = Value::object();
    for (const auto& [k, v] : ms) t.set(k, number_array(v));
    out.set("times", std::move(t));
    Value c = Value::object();
    for (const auto& [k, v] : counts) c.set(k, v);
    out.set("counts", std::move(c));
    out.set("counts_stable", counts_stable);
    out.set("rounds", rounds);
    out.set("traced_ms", number_array(traced_ms));
    out.set("untraced_ms", number_array(untraced_ms));
  }
};

/// Replays one curve stage by stage, in the order Scenario::run_sweep runs
/// them, then runs the same curve through run_sweep untraced. Returns the
/// untraced time; the two documents must be byte-identical.
double trace_curve(const Cell& c, const std::vector<RefRow>& ref, int threads, double rtol,
                   Round& round, Tally& tally) {
  using namespace quarc;
  std::unique_ptr<Topology> topo;
  std::shared_ptr<const MulticastPattern> pattern;
  std::unique_ptr<RoutePlan> plan;
  std::unique_ptr<FlowGraph> flows;
  SaturationProbeResult probe;
  std::shared_ptr<const ContinuationSpine> spine;
  std::vector<RatePointResult> points;
  std::string doc;
  const ModelOptions options;  // the Scenario defaults
  const int spine_points = 4;

  round.stage("topo.build_ms", [&] { topo = api::make_topology(c.topology); });
  if (c.alpha > 0.0) {
    round.stage("traffic.pattern_ms", [&] {
      Rng rng(c.seed);
      pattern = api::make_pattern(c.pattern, topo->num_nodes(), rng);
    });
  }
  Workload w;
  w.message_rate = 0.004;  // Scenario's base rate; every point overrides it
  w.multicast_fraction = c.alpha;
  w.message_length = c.msg;
  w.pattern = pattern;
  round.stage("topo.validate_ms", [&] { w.validate(*topo); });
  round.stage("route.plan_ms", [&] {
    plan = std::make_unique<RoutePlan>(*topo, c.alpha > 0.0 ? pattern.get() : nullptr);
  });
  round.stage("model.flow_graph_ms", [&] { flows = std::make_unique<FlowGraph>(*plan, w); });
  round.stage("sweep.probe_ms", [&] { probe = probe_saturation_rate(*flows, w, options); });
  round.stage("sweep.spine_ms",
              [&] { spine = finalize_spine(*flows, w, options, spine_points, probe); });
  const std::vector<double> rates =
      c.rates.empty() ? rate_grid_from_saturation(probe.rate, c.points, c.fill) : c.rates;
  round.stage("model.stencil_ms", [&] { (void)flows->stencil(); });

  std::vector<SweepTask> tasks;
  for (const double r : rates) tasks.push_back({r, sweep_point_seed(c.seed, r)});
  SweepConfig cfg;
  cfg.model = options;
  cfg.run_sim = false;
  cfg.threads = threads;
  cfg.spine_points = spine_points;
  cfg.spine = spine;
  round.stage("sweep.points_ms", [&] { points = sweep_tasks(*flows, w, tasks, cfg); });

  if (c.sim) {
    // One simulator per point on the same worker count run_sweep uses;
    // per-point build/run times are summed, the stage wall is attributed.
    std::vector<double> build_ms(points.size()), run_ms(points.size());
    std::vector<sim::SimProfile> profiles(points.size());
    round.stage("sim.wall_ms", [&] {
      parallel_for(
          points.size(),
          [&](std::size_t i) {
            sim::SimConfig sc;
            sc.warmup_cycles = c.warmup;
            sc.measure_cycles = c.measure;
            sc.workload = w;
            sc.workload.message_rate = tasks[i].rate;
            sc.seed = tasks[i].sim_seed;
            sc.profile_phases = true;
            const auto t0 = Clock::now();
            sim::Simulator simulator(*plan, sc);
            build_ms[i] = ms_since(t0);
            const auto t1 = Clock::now();
            points[i].sim = simulator.run();
            points[i].sim_run = true;
            run_ms[i] = ms_since(t1);
            profiles[i] = simulator.profile();
          },
          threads);
    });
    for (std::size_t i = 0; i < points.size(); ++i) {
      round.extra("sim.build_ms", build_ms[i]);
      round.extra("sim.run_ms", run_ms[i]);
      round.extra("sim.arrivals_ms", profiles[i].arrivals_ns / 1e6);
      round.extra("sim.allocation_ms", profiles[i].allocation_ns / 1e6);
      round.extra("sim.movement_ms", profiles[i].movement_ns / 1e6);
      round.count("sim.cycles_executed", profiles[i].cycles_executed);
      round.count("sim.cycles_skipped", profiles[i].cycles_skipped);
      round.count("sim.channel_visits", profiles[i].channel_visits);
      round.count("sim.source_polls", profiles[i].source_polls);
      round.count("sim.flits", points[i].sim.flits_absorbed);
    }
  }

  round.stage("api.serialize_ms", [&] {
    api::ResultSet rs;
    rs.topology = c.topology;
    rs.topology_name = topo->name();
    rs.nodes = topo->num_nodes();
    rs.ports = topo->num_ports();
    rs.diameter = plan->max_route_hops();  // == Topology::diameter()
    rs.pattern = c.alpha > 0.0 ? c.pattern : "none";
    rs.alpha = c.alpha;
    rs.message_length = c.msg;
    rs.seed = c.seed;
    rs.workload = w.describe();
    for (const RatePointResult& p : points) rs.rows.push_back(api::ResultRow::from_point(p));
    doc = to_document(rs);
  });

  // Solve-only pass over the same lane groups sweep_tasks formed, to split
  // sweep.points into the fixed-point solve and the Eq. 7-16 assembly.
  std::vector<std::pair<std::size_t, std::size_t>> chunks;
  for (std::size_t i = 0; i < tasks.size(); i += static_cast<std::size_t>(cfg.batch_points)) {
    chunks.push_back({i, std::min(tasks.size(), i + static_cast<std::size_t>(cfg.batch_points))});
  }
  std::vector<long long> solve_iterations(chunks.size(), 0);
  const auto ts = Clock::now();
  parallel_for(
      chunks.size(),
      [&](std::size_t k) {
        const auto [begin, end] = chunks[k];
        thread_local CurveWorkspace cw;
        thread_local std::vector<double> x0, seed;
        const std::size_t nch = flows->num_channels();
        std::vector<double> lane_rates(rates.begin() + static_cast<std::ptrdiff_t>(begin),
                                       rates.begin() + static_cast<std::ptrdiff_t>(end));
        x0.resize(lane_rates.size() * nch);
        for (std::size_t l = 0; l < lane_rates.size(); ++l) {
          spine->seed(lane_rates[l], seed);
          std::copy(seed.begin(), seed.end(), x0.begin() + static_cast<std::ptrdiff_t>(l * nch));
        }
        ServiceTimeSolver solver(*flows, c.msg, options.solver);
        for (const LaneResult& lr : solver.solve_batch(lane_rates, cw, x0)) {
          solve_iterations[k] += lr.iterations;
        }
      },
      threads);
  round.extra("model.solve_ms", ms_since(ts));

  long long iterations = 0;
  for (const RatePointResult& p : points) iterations += p.model.solver_iterations;
  long long solved = 0;
  for (const long long n : solve_iterations) solved += n;
  if (solved != iterations) {
    tally.fail(describe(c) + ": solve-only pass took " + std::to_string(solved) +
               " iterations, the sweep " + std::to_string(iterations));
  }

  const std::size_t n = static_cast<std::size_t>(topo->num_nodes());
  std::int64_t routes = static_cast<std::int64_t>(n * (n - 1));
  if (plan->has_multicast()) {
    for (std::size_t s = 0; s < n; ++s) {
      routes += static_cast<std::int64_t>(plan->stream_count(static_cast<NodeId>(s)));
    }
  }
  const auto entries = static_cast<std::int64_t>(flows->stencil().wait_entry_count());
  round.count("route.routes", routes);
  round.count("model.flow_edges", static_cast<std::int64_t>(flows->flow_count()));
  round.count("model.channels", static_cast<std::int64_t>(flows->num_channels()));
  round.count("model.stencil_entries", entries);
  // Computed, not measured: one (ChannelId, double) pair per wait entry
  // plus one 20-byte path record per route.
  round.count("model.stencil_bytes",
              entries * static_cast<std::int64_t>(sizeof(ChannelId) + sizeof(double)) +
                  routes * 20);
  round.count("model.solver_iterations", iterations);
  round.count("sweep.probe_solves", probe.solves);
  round.count("sweep.probe_iterations", probe.iterations);
  round.count("sweep.spine_solves", spine->build_solves() - probe.solves);
  round.count("api.serialize_bytes", static_cast<std::int64_t>(doc.size()));

  // The untraced reference path: the very call the untraced workload makes.
  const auto tu = Clock::now();
  const api::ResultSet rs = run_curve(c, threads);
  const std::string untraced_doc = to_document(rs);
  const double untraced = ms_since(tu);
  round.extra("api.run_sweep_ms", untraced);

  ++tally.attempted;
  std::string why;
  if (untraced_doc != doc) why += " replayed document differs from run_sweep's";
  if (rs.rows.size() != ref.size()) {
    why += " row count";
  } else {
    for (std::size_t i = 0; i < ref.size(); ++i) {
      const std::string w_row = check_row(rs.rows[i], ref[i], rs.has_multicast(), rtol);
      if (!w_row.empty()) {
        why += " row " + std::to_string(i) + ":" + w_row;
        break;
      }
    }
  }
  if (!why.empty()) tally.fail(describe(c) + ":" + why);
  return untraced;
}

// ----------------------------------------------------------------- curves

int run_curves(const Value& in) {
  std::vector<Cell> cells;
  for (const Value& v : in.at("catalogue").as_array()) cells.push_back(parse_cell(v));
  std::vector<std::vector<std::size_t>> schedule;
  for (const Value& r : in.at("schedule").as_array()) {
    std::vector<std::size_t> round;
    for (const Value& i : r.as_array()) round.push_back(static_cast<std::size_t>(i.as_int()));
    schedule.push_back(std::move(round));
  }
  const auto ref = parse_reference(Value::parse(read_file(in.at("reference").as_string())));
  if (ref.size() != cells.size() || schedule.empty()) {
    throw std::runtime_error("reference does not match the catalogue");
  }
  const int threads = static_cast<int>(in.at("threads").as_int());
  const double seconds = in.at("seconds").as_double();
  const double rtol = in.at("rtol").as_double();
  const bool trace = in.at("trace").as_bool();
  // Untraced runs come in segments of `rounds` rounds starting at
  // `first_round`; rounds == 0 runs until `seconds` have passed.
  const auto first_round = static_cast<std::size_t>(in.at("first_round").as_int());
  const auto rounds_wanted = static_cast<std::size_t>(in.at("rounds").as_int());
  const auto start = Clock::now();
  auto more = [&](std::size_t r) {
    return rounds_wanted > 0 ? r < first_round + rounds_wanted
                             : r == first_round || ms_since(start) < seconds * 1e3;
  };

  std::cout << "ready" << std::endl;  // set-up ends here
  if (in.at("setup_only").as_bool()) return 0;

  Tally tally;
  Value out = Value::object();
  if (trace) {
    TraceLog log;
    for (std::size_t r = first_round; more(r); ++r) {
      Round round;
      double untraced = 0.0;
      for (const std::size_t idx : schedule[r % schedule.size()]) {
        try {
          untraced += trace_curve(cells[idx], ref[idx], threads, rtol, round, tally);
        } catch (const std::exception& e) {
          tally.fail(describe(cells[idx]) + ": " + e.what());
        }
      }
      round.ms["model.assembly_ms"] = round.ms["sweep.points_ms"] - round.ms["model.solve_ms"];
      round.ms["api.unattributed_ms"] = round.ms["api.run_sweep_ms"] - round.attributed_ms;
      log.add(round, untraced);
    }
    out.set("kind", "trace");
    log.write(out);
  } else {
    std::vector<double> curve_ms, err_pct;
    std::int64_t points = 0, flits = 0, rounds = 0;
    bool any_sim = false;
    for (std::size_t r = first_round; more(r); ++r, ++rounds) {
      for (const std::size_t idx : schedule[r % schedule.size()]) {
        const Cell& c = cells[idx];
        const std::vector<RefRow>& rows = ref[idx];
        any_sim = any_sim || c.sim;
        const std::int64_t ops = c.sim ? static_cast<std::int64_t>(rows.size()) : 1;
        tally.attempted += ops;
        const auto t0 = Clock::now();
        quarc::api::ResultSet rs;
        try {
          rs = run_curve(c, threads);
          (void)to_document(rs);  // the --json output a CLI call writes
        } catch (const std::exception& e) {
          curve_ms.push_back(ms_since(t0));
          tally.fail(describe(c) + ": " + e.what(), ops);
          continue;
        }
        curve_ms.push_back(ms_since(t0));
        if (rs.rows.size() != rows.size()) {
          tally.fail(describe(c) + ": row count", ops);
          continue;
        }
        std::int64_t bad = 0;
        std::string first;
        for (std::size_t i = 0; i < rows.size(); ++i) {
          const std::string why = check_row(rs.rows[i], rows[i], rs.has_multicast(), rtol);
          if (!why.empty()) {
            ++bad;
            if (first.empty()) first = "row " + std::to_string(i) + ":" + why;
            continue;
          }
          ++points;
          if (c.sim) {
            flits += rows[i].flits;
            const double e = model_error_pct(rs.rows[i]);
            if (!std::isnan(e)) err_pct.push_back(e);
          }
        }
        if (bad > 0) tally.fail(describe(c) + ": " + first, c.sim ? bad : 1);
      }
    }
    out.set("kind", "curves");
    out.set("rounds", rounds);
    out.set("curve_ms", number_array(curve_ms));
    out.set("points", points);
    if (any_sim) {
      out.set("flits", flits);
      out.set("err_pct", number_array(err_pct));
    }
    out.set("peak_rss_mb", peak_rss_mb());
  }
  tally.write(out);
  std::cout << out.dump() << std::endl;
  return 0;
}

// ------------------------------------------------------------ serve replay

/// serve()'s request handling, one public call per stage, for one request
/// line. Returns the response line serve() would print; `request_ms` gets
/// the sum of the stages.
std::string replay_request(const std::string& line,
                           const std::shared_ptr<quarc::batch::ArtifactCache>& artifacts,
                           const std::shared_ptr<quarc::SweepCache>& cache, int threads,
                           Round& round, double& request_ms) {
  using namespace quarc;
  const double before = round.attributed_ms;
  Value request;
  batch::ScenarioSet one;
  round.stage("batch.parse_ms", [&] {
    request = Value::parse(line);
    Value spec_doc = Value::object();
    for (const auto& [key, value] : request.as_object()) {
      if (key != "id" && key != "rate" && key != "cmd") spec_doc.set(key, value);
    }
    if (const Value* rate = request.find("rate")) {
      Value rates = Value::array();
      rates.push_back(*rate);
      spec_doc.set("rates", std::move(rates));
    }
    std::istringstream spec_line(spec_doc.dump());
    one = batch::ScenarioSet::parse(spec_line);
  });
  const int msg = one[0].msg;
  api::Scenario keyed = one[0].make_scenario();
  ScenarioFingerprint fp;
  round.stage("batch.fingerprint_ms", [&] {
    keyed.artifacts(artifacts);
    fp = keyed.fingerprint();
  });
  std::vector<api::ResultSet> results;
  std::int64_t solved_iterations = 0;
  round.stage("batch.run_ms", [&] {
    batch::BatchOptions bo;
    bo.threads = threads;
    bo.cache = cache;
    bo.artifacts = artifacts;
    batch::BatchRunner runner(std::move(one), bo);
    results = runner.run(nullptr, nullptr);
    solved_iterations = runner.stats().solved_iterations;
  });
  std::string response_line;
  round.stage("api.serialize_ms", [&] {
    const api::ResultSet& rs = results.front();
    Value response = Value::object();
    response.set("schema", batch::kServeSchemaVersion);
    if (const Value* id = request.find("id")) response.set("id", *id);
    Value rows = Value::array();
    for (const api::ResultRow& row : rs.rows) rows.push_back(api::row_to_json(row));
    response.set("fp", fp.hex());
    response.set("rows", std::move(rows));
    response.set("served", rs.cache_hits);
    response.set("solved", rs.cache_misses);
    response.set("iterations", solved_iterations);
    response_line = response.dump();
  });
  request_ms = round.attributed_ms - before;
  round.count("api.serialize_bytes", static_cast<std::int64_t>(response_line.size()));
  // Not one of serve()'s stages: one Workload::validate (and with it
  // Topology::diameter()) of the request's topology, timed on its own.
  // serve() runs it several times per request inside the stages above.
  Workload shape;
  shape.message_length = msg;
  const Topology& topo = keyed.built_topology();
  const auto tv = Clock::now();
  shape.validate(topo);
  round.extra("topo.validate_ms", ms_since(tv));
  return response_line;
}

int run_serve_replay(const Value& in) {
  using namespace quarc;
  const std::vector<std::string> requests = read_lines(in.at("requests").as_string());
  std::vector<std::string> responses;
  if (const Value* r = in.find("responses")) responses = read_lines(r->as_string());
  const std::string cache_root = in.at("cache_root").as_string();
  const auto memory_limit = static_cast<std::size_t>(in.at("memory_limit").as_int());
  const int threads = static_cast<int>(in.at("threads").as_int());
  const double seconds = in.at("seconds").as_double();

  Tally tally;
  TraceLog log;
  std::vector<double> request_ms;
  const auto start = Clock::now();
  for (int r = 0; r == 0 || ms_since(start) < seconds * 1e3; ++r) {
    Round round;
    auto cache = std::make_shared<SweepCache>(cache_root + "/replay-" + std::to_string(r));
    if (memory_limit > 0) cache->set_memory_limit_rows(memory_limit);
    auto artifacts = std::make_shared<batch::ArtifactCache>();
    for (std::size_t i = 0; i < requests.size(); ++i) {
      double ms = 0.0;
      std::string response;
      try {
        response = replay_request(requests[i], artifacts, cache, threads, round, ms);
      } catch (const std::exception& e) {
        if (r == 0) tally.fail("request " + std::to_string(i) + ": " + e.what());
      }
      if (r == 0) {
        ++tally.attempted;
        request_ms.push_back(ms);
        if (i < responses.size() && response != responses[i]) {
          tally.fail("request " + std::to_string(i) + ": replayed response differs from serve's");
        }
      }
    }
    const SweepCacheStats cs = cache->stats();
    round.count("sweep.cache_hits", cs.hits);
    round.count("sweep.cache_misses", cs.misses);
    round.count("sweep.cache_stores", cs.stores);
    round.count("sweep.cache_evicted_rows", cs.evicted_rows);
    round.count("sweep.cache_loaded", cs.loaded_entries);
    const batch::ArtifactCacheStats as = artifacts->stats();
    round.count("batch.plans_compiled", as.plans_compiled);
    round.count("batch.plans_reused", as.plans_reused);
    round.count("batch.flows_compiled", as.flows_compiled);
    round.count("batch.flows_reused", as.flows_reused);
    log.add(round, 0.0);
  }
  Value out = Value::object();
  out.set("kind", "serve-trace");
  log.write(out);
  out.set("request_ms", number_array(request_ms));
  tally.write(out);
  std::cout << out.dump() << std::endl;
  return 0;
}

// ----------------------------------------------------------------- record

/// Reference rows for a curve catalogue (run once per cell through the
/// untraced path; flits from a direct Simulator run of each point).
int run_record(const Value& in) {
  using namespace quarc;
  const int threads = static_cast<int>(in.at("threads").as_int());
  Value cells = Value::array();
  for (const Value& v : in.at("catalogue").as_array()) {
    const Cell c = parse_cell(v);
    api::Scenario s = make_scenario(c, threads);
    const api::ResultSet rs = c.rates.empty() ? s.run_sweep(c.points, c.fill)
                                              : s.run_sweep(c.rates);
    Value rows = Value::array();
    for (const api::ResultRow& row : rs.rows) {
      Value r = Value::object();
      r.set("rate", row.rate);
      r.set("unicast", finite_or_null(row.model_unicast_latency));
      r.set("multicast", finite_or_null(row.model_multicast_latency));
      r.set("max_util", finite_or_null(row.model_max_utilization));
      if (c.sim) {
        sim::SimConfig sc = s.sim_config();
        sc.workload = s.build_workload();
        sc.workload.message_rate = row.rate;
        sc.seed = sweep_point_seed(c.seed, row.rate);
        const sim::SimResult res = sim::Simulator(s.route_plan(), sc).run();
        if (res.messages_generated != row.sim_messages_generated) {
          throw std::runtime_error("direct simulation disagrees with run_sweep");
        }
        Value sv = Value::object();
        sv.set("completed", row.sim_completed);
        sv.set("stable", row.sim_stable);
        sv.set("unicast", finite_or_null(row.sim_unicast_latency));
        sv.set("multicast", finite_or_null(row.sim_multicast_latency));
        sv.set("unicast_count", row.sim_unicast_count);
        sv.set("multicast_count", row.sim_multicast_count);
        sv.set("messages", row.sim_messages_generated);
        sv.set("cycles", row.sim_cycles);
        sv.set("flits", res.flits_absorbed);
        r.set("sim", std::move(sv));
      }
      rows.push_back(std::move(r));
    }
    Value cell = Value::object();
    cell.set("spec", v);
    cell.set("rows", std::move(rows));
    cells.push_back(std::move(cell));
  }
  Value out = Value::object();
  out.set("cells", std::move(cells));
  std::cout << out.dump() << std::endl;
  return 0;
}

int run_env() {
  Value out = Value::object();
  out.set("compiler", PERFBENCH_COMPILER);
  out.set("flags", PERFBENCH_FLAGS);
  out.set("build_type", PERFBENCH_BUILD_TYPE);
  out.set("native", static_cast<bool>(PERFBENCH_NATIVE));
  std::cout << out.dump() << std::endl;
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const std::string cmd = argc > 1 ? argv[1] : "";
    if (cmd == "env") return run_env();
    if (argc != 3) {
      std::cerr << "usage: perfbench env | curves|serve-replay|record <input.json>\n";
      return 2;
    }
    const Value in = Value::parse(read_file(argv[2]));
    if (cmd == "curves") return run_curves(in);
    if (cmd == "serve-replay") return run_serve_replay(in);
    if (cmd == "record") return run_record(in);
    std::cerr << "perfbench: unknown subcommand '" << cmd << "'\n";
    return 2;
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 1;
  }
}
