// Benchmark harness for `tmg`: the parts of the benchmark that need the
// pipeline's public module functions rather than the CLI.
//
//   tmgbench_harness check [--opt] --report OUT FILE...
//       Runs Pipeline::run at --jobs=1 on every file, renders the report the
//       CLI would print for the same arguments with --format=json into OUT,
//       and checks every function's timing model against a brute-force
//       reference built with testgen::Interpreter.
//   tmgbench_harness trace [--opt] FILE...
//       Per-layer attribution from outside the program: calls each module's
//       public functions in the order Pipeline::run uses them, timing every
//       call, and compares the layer sum with Pipeline::run's own wall.
//   tmgbench_harness serve-layers [--opt] --jobs N --cache-dir DIR
//                                 --cap-mb N FILE...
//       In-process cost of the daemon's layers on these files: result-cache
//       store and lookup, handle_serve_request on a hit, and
//       parse_serve_response.
//   tmgbench_harness requests [--opt] --jobs N FILE...
//       Prints one `analyze` request payload per file, one per line.
//
// Every mode except `requests` prints one JSON object on stdout. Exit
// status: 0 ok, 1 usage error, 2 unreadable input or pipeline failure.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <type_traits>
#include <vector>

#include "bmc/session.h"
#include "cfg/paths.h"
#include "cfg/structure.h"
#include "core/partition.h"
#include "driver/cache.h"
#include "driver/pipeline.h"
#include "driver/report.h"
#include "driver/serve.h"
#include "minic/frontend.h"
#include "opt/passes.h"
#include "opt/slice.h"
#include "support/json.h"
#include "testgen/interp.h"
#include "tsys/translate.h"

namespace {

using namespace tmg;
using cfg::BlockId;
using cfg::EdgeRef;
using driver::PathVerdict;

double now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

struct Args {
  std::string mode;
  bool opt = false;
  unsigned jobs = 1;
  std::string report, cache_dir;
  std::uint64_t cap_mb = 1;
  std::vector<std::string> files;
  std::vector<std::string> sources;
};

bool parse_args(int argc, char** argv, Args& a) {
  if (argc < 2) return false;
  a.mode = argv[1];
  for (int i = 2; i < argc; ++i) {
    const std::string s = argv[i];
    const auto value = [&]() -> std::string {
      return i + 1 < argc ? argv[++i] : std::string();
    };
    if (s == "--opt") {
      a.opt = true;
    } else if (s == "--jobs") {
      a.jobs = static_cast<unsigned>(std::stoul(value()));
    } else if (s == "--report") {
      a.report = value();
    } else if (s == "--cache-dir") {
      a.cache_dir = value();
    } else if (s == "--cap-mb") {
      a.cap_mb = std::stoull(value());
    } else if (s.rfind("--", 0) == 0) {
      return false;
    } else {
      a.files.push_back(s);
    }
  }
  return !a.files.empty();
}

bool read_sources(Args& a) {
  for (const std::string& f : a.files) {
    std::ifstream in(f, std::ios::binary);
    if (!in) {
      std::cerr << "tmgbench_harness: cannot read " << f << "\n";
      return false;
    }
    std::ostringstream ss;
    ss << in.rdbuf();
    a.sources.push_back(ss.str());
  }
  return true;
}

/// The options `tmg FILE... [--opt] --jobs=N` runs with.
driver::PipelineOptions pipeline_options(const Args& a, unsigned jobs) {
  driver::PipelineOptions o;
  o.jobs = jobs;
  if (a.opt) o.opt_passes = opt::all_passes();
  return o;
}

std::unique_ptr<minic::Program> compile(const std::string& source) {
  DiagnosticEngine diags;
  return minic::compile(source, diags,
                        minic::SemaOptions{.warn_unbounded_loops = false});
}

void json_number(std::ostream& os, const char* key, double v, bool& first) {
  os << (first ? "" : ",") << json_quote(key) << ":" << json_double(v);
  first = false;
}

// ------------------------------------------------------------------ check

/// Symbols a function reads or writes anywhere in its body.
void collect_symbols(const minic::Expr& e, std::set<const minic::Symbol*>& out) {
  if (e.sym != nullptr) out.insert(e.sym);
  for (const auto& c : e.children)
    if (c) collect_symbols(*c, out);
}

void collect_symbols(const minic::Stmt& s, std::set<const minic::Symbol*>& out) {
  if (s.sym != nullptr) out.insert(s.sym);
  if (s.cond) collect_symbols(*s.cond, out);
  for (const auto& c : s.children)
    if (c) collect_symbols(*c, out);
  for (const auto& b : s.body)
    if (b) collect_symbols(*b, out);
  for (const minic::SwitchCase& c : s.cases)
    for (const auto& b : c.body)
      if (b) collect_symbols(*b, out);
}

/// Every terminating run of one function over all combinations of the
/// inputs it mentions (the others stay at their domain's low end).
bool brute_force(const minic::Program& program, const cfg::FunctionCfg& f,
                 std::vector<testgen::ExecTrace>& traces, std::string& error) {
  testgen::Interpreter interp(program, f);
  std::set<const minic::Symbol*> used;
  collect_symbols(*f.fn->body, used);
  const std::vector<minic::Symbol*>& inputs = interp.inputs();
  std::vector<std::int64_t> cursor;
  std::vector<std::size_t> free;
  std::uint64_t combos = 1;
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    const auto [lo, hi] = inputs[i]->value_range();
    cursor.push_back(lo);
    if (!used.contains(inputs[i]) || hi == lo) continue;
    free.push_back(i);
    const std::uint64_t width = static_cast<std::uint64_t>(hi - lo) + 1;
    if (width > (1u << 20) || combos * width > (1u << 20)) {
      error = "input space of '" + f.fn->name + "' too large to brute-force";
      return false;
    }
    combos *= width;
  }
  for (;;) {
    testgen::ExecTrace t = interp.run(cursor);
    if (!t.terminated) {
      error = "'" + f.fn->name + "' did not terminate on some input";
      return false;
    }
    traces.push_back(std::move(t));
    std::size_t k = 0;
    for (; k < free.size(); ++k) {
      const std::size_t i = free[k];
      if (++cursor[i] <= inputs[i]->value_range().second) break;
      cursor[i] = inputs[i]->value_range().first;
    }
    if (k == free.size()) return true;
  }
}

bool window_in(const std::vector<EdgeRef>& hay, const std::vector<EdgeRef>& w) {
  return std::search(hay.begin(), hay.end(), w.begin(), w.end()) != hay.end();
}

/// Reference verdict for one enumerated segment path, following the
/// query semantics in bmc/bmc.h: a block is feasible when some run
/// executes it; a whole-function path when some run takes exactly its
/// decisions; a region path when some run fires its decisions as one
/// consecutive window (a decision-free region path: when some run takes
/// the entry edge, or reaches the entry block for non-decision entries).
bool reference_feasible(const cfg::Cfg& g, const core::Segment& seg,
                        const cfg::PathSpec* spec,
                        const std::vector<testgen::ExecTrace>& traces) {
  for (const testgen::ExecTrace& t : traces) {
    if (seg.kind == core::SegmentKind::Block) {
      if (std::find(t.blocks.begin(), t.blocks.end(), seg.block) !=
          t.blocks.end())
        return true;
      continue;
    }
    if (seg.whole_function) {
      if (spec->choices.empty() || t.choices == spec->choices) return true;
      continue;
    }
    if (!spec->choices.empty()) {
      if (window_in(t.choices, spec->choices)) return true;
      continue;
    }
    const EdgeRef anchor = *seg.region->entry;
    if (g.block(anchor.from).is_decision()) {
      if (std::find(t.choices.begin(), t.choices.end(), anchor) !=
          t.choices.end())
        return true;
    } else if (std::find(t.blocks.begin(), t.blocks.end(),
                         g.edge(anchor).to) != t.blocks.end()) {
      return true;
    }
  }
  return false;
}

/// Compares one function's timing model with the brute-force reference.
/// Returns an empty string when they agree.
std::string check_function(const minic::Program& program,
                           const minic::FunctionDef& fn,
                           const driver::FunctionTiming& ft,
                           const driver::PipelineOptions& opts) {
  const std::unique_ptr<cfg::FunctionCfg> f = cfg::build_cfg(fn);
  const cfg::PathAnalysis pa(*f);
  const core::Partition part = core::partition_function(
      *f, pa, core::PartitionOptions{opts.path_bound});
  std::vector<testgen::ExecTrace> traces;
  std::string error;
  if (!brute_force(program, *f, traces, error)) return error;
  if (part.segments.size() != ft.segments.size())
    return "segment count differs from the reference partition";

  for (std::size_t si = 0; si < part.segments.size(); ++si) {
    const core::Segment& seg = part.segments[si];
    const driver::SegmentTiming& st = ft.segments[si];
    const std::string where =
        "segment " + std::to_string(st.id) + " of '" + fn.name + "': ";
    std::vector<cfg::PathSpec> specs;
    if (seg.kind == core::SegmentKind::Region) {
      cfg::enumerate_paths(*f, cfg::arm_entry_block(*seg.region), seg.blocks,
                           opts.max_paths_per_segment, specs);
      if (specs.size() != st.paths.size())
        return where + "enumerated path count differs";
    }
    bool any = false;
    std::int64_t bcet = 0, wcet = 0;
    std::size_t feasible = 0;
    for (std::size_t p = 0; p < st.paths.size(); ++p) {
      const driver::PathTiming& pt = st.paths[p];
      const cfg::PathSpec* spec = specs.empty() ? nullptr : &specs[p];
      if (spec != nullptr && spec->blocks != pt.blocks)
        return where + "path blocks differ from the enumeration";
      std::int64_t cost = 0;
      for (const BlockId b : pt.blocks)
        cost += opts.cost.block_cost(f->graph.block(b));
      if (cost != pt.cost) return where + "path cost differs";
      const bool ref = reference_feasible(f->graph, seg, spec, traces);
      if (pt.verdict == PathVerdict::Feasible && !ref)
        return where + "a path no input executes is reported feasible";
      if (pt.verdict == PathVerdict::Infeasible && ref)
        return where + "an executed path is reported infeasible";
      if (!ref) continue;
      ++feasible;
      bcet = any ? std::min(bcet, cost) : cost;
      wcet = any ? std::max(wcet, cost) : cost;
      any = true;
    }
    if (st.conclusive()) {
      if (st.feasible != feasible || st.bcet != bcet || st.wcet != wcet)
        return where + "BCET/WCET " + std::to_string(st.bcet) + "/" +
               std::to_string(st.wcet) + " vs reference " +
               std::to_string(bcet) + "/" + std::to_string(wcet);
    } else if (any && (st.bcet > bcet || st.wcet < wcet)) {
      return where + "inconclusive bounds do not enclose the reference";
    }
  }
  return {};
}

/// Renders what `tmg FILE... --format=json` prints for these results.
void render_json(const std::vector<driver::BatchEntry>& entries,
                 const driver::PipelineOptions& opts, std::ostream& os) {
  if (entries.size() == 1)
    driver::render_report(entries.front().result, opts,
                          driver::ReportFormat::Json, false, os);
  else
    driver::render_batch_report(entries, opts, driver::ReportFormat::Json,
                                false, os);
}

/// The deterministic part of one analysed file, in the order the serve
/// wire carries it: per function, per segment bcet/wcet/feasible/
/// infeasible/unknown. The load generator compares responses against it.
std::string model_key(const driver::PipelineResult& r) {
  std::ostringstream os;
  for (const driver::FunctionTiming& ft : r.functions) {
    os << ft.name << ":";
    for (const driver::SegmentTiming& s : ft.segments)
      os << s.bcet << "/" << s.wcet << "/" << s.feasible << "/"
         << s.infeasible << "/" << s.unknown << ",";
    os << ";";
  }
  return os.str();
}

int run_check(Args& a) {
  if (a.report.empty()) return 1;
  const driver::PipelineOptions opts = pipeline_options(a, 1);
  std::vector<driver::BatchEntry> entries;
  std::size_t functions = 0, mismatched = 0;
  std::vector<std::string> notes, keys;
  for (std::size_t i = 0; i < a.sources.size(); ++i) {
    driver::PipelineResult r = driver::Pipeline(opts).run(a.sources[i]);
    if (!r.ok) {
      std::cerr << a.files[i] << ": " << r.error;
      return 2;
    }
    const std::unique_ptr<minic::Program> program = compile(a.sources[i]);
    for (std::size_t fi = 0; fi < r.functions.size(); ++fi) {
      ++functions;
      const std::string why =
          check_function(*program, *program->functions[fi], r.functions[fi],
                         opts);
      if (why.empty()) continue;
      ++mismatched;
      if (notes.size() < 5) notes.push_back(a.files[i] + ": " + why);
    }
    keys.push_back(model_key(r));
    entries.push_back(driver::BatchEntry{a.files[i], std::move(r)});
  }

  std::ofstream out(a.report, std::ios::binary);
  render_json(entries, opts, out);
  out.close();
  if (!out) return 2;

  std::cout << "{\"functions\":" << functions
            << ",\"mismatched\":" << mismatched << ",\"notes\":[";
  for (std::size_t i = 0; i < notes.size(); ++i)
    std::cout << (i ? "," : "") << json_quote(notes[i]);
  std::cout << "],\"models\":[";
  for (std::size_t i = 0; i < keys.size(); ++i)
    std::cout << (i ? "," : "") << json_quote(keys[i]);
  std::cout << "]}\n";
  return 0;
}

// ------------------------------------------------------------------ trace

// The unroll depth that covers every terminating run. Mirrors the private
// required_depth() of driver/pipeline.cpp, which sizes every session.
std::uint64_t arm_weight(const cfg::Cfg& g, const cfg::Arm& arm,
                         const std::vector<std::uint64_t>* per);

std::uint64_t construct_weight(const cfg::Cfg& g, const cfg::Construct& c,
                               const std::vector<std::uint64_t>* per) {
  std::uint64_t arms_max = 0, arms_sum = 0;
  for (const cfg::Arm& arm : c.arms) {
    const std::uint64_t w = arm_weight(g, arm, per);
    arms_max = std::max(arms_max, w);
    arms_sum += w;
  }
  const std::uint64_t dec = per != nullptr ? (*per)[c.decision] : 1;
  const std::uint64_t bound = c.loop_bound.value_or(1);
  switch (c.kind) {
    case cfg::ConstructKind::If:
      return dec + arms_max;
    case cfg::ConstructKind::Switch:
      return dec + (c.has_fallthrough ? arms_sum : arms_max);
    case cfg::ConstructKind::While:
      return (bound + 1) * dec + bound * arms_max;
    case cfg::ConstructKind::DoWhile: {
      const std::uint64_t b = std::max<std::uint64_t>(bound, 1);
      return b * dec + b * arms_max;
    }
  }
  return dec + arms_max;
}

std::uint64_t arm_weight(const cfg::Cfg& g, const cfg::Arm& arm,
                         const std::vector<std::uint64_t>* per) {
  std::uint64_t total = 0;
  for (const cfg::ArmItem& item : arm.items) {
    if (!item.is_block())
      total += construct_weight(g, *item.construct, per);
    else if (per != nullptr)
      total += (*per)[item.block];
    else
      total += g.block(item.block).stmts.size() + 2;
  }
  return total;
}

std::uint64_t required_depth(const cfg::FunctionCfg& f,
                             const tsys::TransitionSystem& ts,
                             bool has_back_edge, bool ts_aware) {
  const std::uint64_t floor = ts.num_locs + 1;
  if (!has_back_edge) return floor;
  std::vector<std::uint64_t> per(f.graph.size(), 0);
  std::vector<std::vector<BlockId>> seen(ts.num_locs);
  for (const tsys::Transition& t : ts.transitions) {
    std::vector<BlockId>& s = seen[t.from];
    if (std::find(s.begin(), s.end(), t.origin_block) != s.end()) continue;
    s.push_back(t.origin_block);
    if (t.origin_block < per.size()) ++per[t.origin_block];
  }
  const std::uint64_t body =
      arm_weight(f.graph, f.body, ts_aware ? &per : nullptr);
  return std::max<std::uint64_t>(body + 2, floor);
}

/// Wall-clock seconds and counts per layer.
struct Layers {
  std::map<std::string, double> seconds;
  std::map<std::string, double> counts;
  std::vector<double> query_s;
  double decide_s = 0.0;
  double minimise_s = 0.0;

  /// Answers `q` on two fresh sessions, with and without witness
  /// minimisation (outside the layer sum): the second is the decision
  /// cost, the difference the minimisation cost.
  void fresh_pair(const tsys::TransitionSystem& ts, const bmc::BmcOptions& bo,
                  const bmc::BmcQuery& q) {
    bmc::BmcOptions plain = bo;
    plain.minimize_witness = false;
    bmc::Session with_min(ts, bo), without_min(ts, plain);
    const double t0 = now();
    (void)with_min.solve(q);
    const double t1 = now();
    (void)without_min.solve(q);
    const double t2 = now();
    decide_s += t2 - t1;
    minimise_s += std::max(0.0, (t1 - t0) - (t2 - t1));
  }

  /// Times `fn` into layer `name` and returns its result.
  template <typename Fn>
  auto time(const std::string& name, Fn&& fn) {
    const double t0 = now();
    if constexpr (std::is_void_v<decltype(fn())>) {
      fn();
      seconds[name] += now() - t0;
    } else {
      auto r = fn();
      seconds[name] += now() - t0;
      return r;
    }
  }
  void max(const std::string& name, double v) {
    counts[name] = std::max(counts[name], v);
  }
};

/// One answered query, as the pipeline's FeasibilityOracle caches it.
struct Answer {
  PathVerdict verdict = PathVerdict::Unknown;
  std::vector<std::int64_t> witness;
  std::vector<EdgeRef> decision_trace;
  bool schedule_realised = false;
};

Answer verdict_only(PathVerdict v) {
  Answer a;
  a.verdict = v;
  return a;
}

/// Per-function state of the traced run: what the pipeline's front half
/// builds, then the single-worker oracle that answers its path jobs in
/// job order (one warm session per system, edge answers memoised).
class TracedFunction {
 public:
  TracedFunction(Layers& layers, const minic::Program& program,
                 const minic::FunctionDef& fn,
                 const driver::PipelineOptions& opts)
      : L_(layers), program_(program) {
    L_.time("cfg.build_s", [&] {
      f_ = cfg::build_cfg(fn);
      pa_ = std::make_unique<cfg::PathAnalysis>(*f_);
    });
    L_.time("core.partition_s", [&] {
      part_ = core::partition_function(*f_, *pa_,
                                       core::PartitionOptions{opts.path_bound});
      (void)core::validate_partition(*f_, part_);
    });
    L_.counts["core.segments"] += part_.segments.size();
    DiagnosticEngine diags;
    L_.time("tsys.translate_s",
            [&] { tr_ = tsys::translate(program, *f_, diags); });
    if (!tr_) return;
    for (const cfg::BasicBlock& b : f_->graph.blocks())
      for (const cfg::Edge& e : b.succs) has_back_edge_ |= e.back;
    const int bits_before = tr_->ts.state_bits();
    L_.counts["tsys.state_bits"] += bits_before;
    if (!opts.opt_passes.empty()) {
      L_.time("opt.passes_s", [&] {
        std::vector<tsys::VarId> var_map(tr_->ts.vars.size());
        for (std::size_t v = 0; v < var_map.size(); ++v)
          var_map[v] = static_cast<tsys::VarId>(v);
        // The pipeline recomputes the depth around every pass for its
        // pass reports; that work belongs to this layer too.
        (void)required_depth(*f_, tr_->ts, has_back_edge_, true);
        for (const opt::Pass p : opts.opt_passes) {
          opt::run_pass_mapped(tr_->ts, p, var_map);
          (void)required_depth(*f_, tr_->ts, has_back_edge_, true);
        }
        for (tsys::VarId& v : tr_->var_of_symbol)
          if (v != tsys::kNoVar) v = var_map[v];
      });
      L_.counts["opt.state_bits_saved"] += bits_before - tr_->ts.state_bits();
    }
    const std::uint64_t required = required_depth(
        *f_, tr_->ts, has_back_edge_, !opts.opt_passes.empty());
    bo_ = opts.bmc;
    bo_.max_steps = static_cast<std::uint32_t>(
        std::min<std::uint64_t>(required, opts.max_unroll_depth));
    depth_complete_ = bo_.max_steps >= required;
    bo_.runs_terminate = depth_complete_;
    L_.max("bmc.unroll_depth_max", bo_.max_steps);

    specs_.resize(part_.segments.size());
    L_.time("cfg.enumerate_s", [&] {
      for (std::size_t si = 0; si < part_.segments.size(); ++si) {
        const core::Segment& s = part_.segments[si];
        if (s.kind == core::SegmentKind::Region)
          cfg::enumerate_paths(*f_, cfg::arm_entry_block(*s.region), s.blocks,
                               opts.max_paths_per_segment, specs_[si]);
      }
    });
    if (opts.slice && depth_complete_ && bo_.minimize_witness &&
        bo_.conflict_budget < 0)
      L_.time("opt.slice_s", [&] { build_slices(); });
  }

  [[nodiscard]] bool ok() const { return tr_ != nullptr; }

  /// Runs every path job in pipeline job order, then replays witnesses.
  void analyse() {
    std::vector<std::pair<const driver::PathTiming*, bool>> feasible;
    for (std::size_t si = 0; si < part_.segments.size(); ++si) {
      const core::Segment& s = part_.segments[si];
      if (s.kind == core::SegmentKind::Block) {
        L_.counts["cfg.paths"] += 1;
        record(block_reachable(s.block), {s.block}, true);
        continue;
      }
      L_.counts["cfg.paths"] += specs_[si].size();
      for (const cfg::PathSpec& spec : specs_[si])
        record(region_path(spec.choices, s, si), spec.blocks, false);
    }
    L_.time("testgen.replay_s", [&] {
      testgen::Interpreter interp(program_, *f_);
      for (const Replay& r : replays_) {
        std::vector<std::int64_t> inputs;
        bool mapped = true;
        for (const minic::Symbol* s : interp.inputs()) {
          const tsys::VarId v = tr_->var_of_symbol[s->id];
          if (v == tsys::kNoVar || v >= r.answer.witness.size()) {
            mapped = false;
            break;
          }
          inputs.push_back(r.answer.witness[v]);
        }
        if (!mapped) continue;
        const testgen::ExecTrace t = interp.run(inputs);
        L_.counts["testgen.replays"] += 1;
        // The comparison the pipeline makes, kept so its cost is counted.
        volatile bool same = t.choices == r.answer.decision_trace &&
                             (r.block_segment
                                  ? std::find(t.blocks.begin(), t.blocks.end(),
                                              r.blocks.front()) !=
                                        t.blocks.end()
                                  : std::search(t.blocks.begin(),
                                                t.blocks.end(),
                                                r.blocks.begin(),
                                                r.blocks.end()) !=
                                        t.blocks.end());
        (void)same;
      }
    });
  }

 private:
  struct Replay {
    Answer answer;
    std::vector<BlockId> blocks;
    bool block_segment = false;
  };

  void record(const Answer& a, std::vector<BlockId> blocks, bool block_seg) {
    if (a.verdict == PathVerdict::Feasible && !a.witness.empty())
      replays_.push_back(Replay{a, std::move(blocks), block_seg});
  }

  void build_slices() {
    const cfg::Cfg& g = f_->graph;
    const std::size_t nb = g.size();
    std::vector<BlockId> decisions;
    for (const cfg::BasicBlock& b : g.blocks())
      if (b.is_decision()) decisions.push_back(b.id);
    if (decisions.empty()) return;
    std::vector<std::vector<bool>> reach_of(nb);
    for (const BlockId d : decisions) {
      std::vector<bool>& r = reach_of[d];
      r.assign(nb, false);
      std::vector<BlockId> work{d};
      while (!work.empty()) {
        const BlockId cur = work.back();
        work.pop_back();
        for (const cfg::Edge& e : g.block(cur).succs)
          if (!r[e.to]) {
            r[e.to] = true;
            work.push_back(e.to);
          }
      }
    }
    slice_of_block_.assign(nb, kNone);
    slice_of_segment_.assign(part_.segments.size(), kNone);
    std::map<std::string, std::size_t> by_fingerprint;
    const auto add = [&](const std::vector<bool>& keep) {
      L_.counts["opt.slice_requests"] += 1;
      opt::SegmentSlice s = opt::build_slice(tr_->ts, keep);
      if (s.trivial) return kNone;
      L_.counts["opt.slice_nontrivial"] += 1;
      const auto it = by_fingerprint.find(s.fingerprint);
      if (it != by_fingerprint.end()) return it->second;
      L_.counts["opt.slice_dropped_vars"] += s.dropped_vars;
      bmc::BmcOptions bo = bo_;
      bo.max_steps = static_cast<std::uint32_t>(std::min<std::uint64_t>(
          bo.max_steps, required_depth(*f_, s.ts, has_back_edge_, true)));
      by_fingerprint.emplace(s.fingerprint, slices_.size());
      slices_.push_back(std::make_unique<opt::SegmentSlice>(std::move(s)));
      slice_opts_.push_back(bo);
      return slices_.size() - 1;
    };
    for (const BlockId from : decisions) {
      std::vector<bool> keep(nb, false);
      keep[from] = true;
      for (const BlockId d : decisions)
        if (reach_of[d][from]) keep[d] = true;
      slice_of_block_[from] = add(keep);
    }
    for (std::size_t si = 0; si < part_.segments.size(); ++si) {
      const core::Segment& seg = part_.segments[si];
      if (seg.kind != core::SegmentKind::Region || seg.whole_function) continue;
      std::vector<bool> keep(nb, false);
      for (const BlockId b : seg.blocks)
        if (g.block(b).is_decision()) keep[b] = true;
      for (const BlockId d : decisions) {
        if (keep[d]) continue;
        for (const BlockId b : seg.blocks)
          if (reach_of[d][b]) {
            keep[d] = true;
            break;
          }
      }
      slice_of_segment_[si] = add(keep);
    }
  }

  Answer region_path(const std::vector<EdgeRef>& choices,
                     const core::Segment& s, std::size_t si) {
    if (s.whole_function) {
      if (choices.empty()) return verdict_only(PathVerdict::Feasible);
      return schedule(choices, false, std::nullopt, kNone);
    }
    const EdgeRef anchor = *s.region->entry;
    const bool dec_anchor = f_->graph.block(anchor.from).is_decision();
    if (!choices.empty()) {
      const std::size_t slice =
          si < slice_of_segment_.size() ? slice_of_segment_[si] : kNone;
      Answer run = schedule(choices, true,
                            dec_anchor ? std::optional<EdgeRef>(anchor)
                                       : std::nullopt,
                            slice);
      if (!run.schedule_realised && !dec_anchor)
        run = verdict_only(run.verdict == PathVerdict::Infeasible
                               ? PathVerdict::Infeasible
                               : PathVerdict::Unknown);
      return run;
    }
    if (dec_anchor) return edge_feasible(anchor);
    return block_reachable(f_->graph.edge(anchor).to);
  }

  const Answer& block_reachable(BlockId b) {
    auto [it, inserted] = reach_memo_.try_emplace(b);
    if (!inserted) return it->second;
    it->second.verdict = PathVerdict::Infeasible;
    if (b == f_->graph.entry()) {
      it->second.verdict = PathVerdict::Feasible;
      return it->second;
    }
    Answer result = verdict_only(PathVerdict::Infeasible);
    bool unknown = false;
    for (const BlockId p : f_->graph.preds()[b]) {
      const cfg::BasicBlock& pred = f_->graph.block(p);
      for (std::uint32_t i = 0; i < pred.succs.size(); ++i) {
        if (pred.succs[i].to != b || pred.succs[i].back) continue;
        const Answer sub = pred.is_decision() ? edge_feasible(EdgeRef{p, i})
                                              : block_reachable(p);
        if (sub.verdict == PathVerdict::Feasible) {
          result.verdict = PathVerdict::Feasible;
          result.witness = sub.witness;
          break;
        }
        unknown |= sub.verdict == PathVerdict::Unknown;
      }
      if (result.verdict == PathVerdict::Feasible) break;
    }
    if (result.verdict != PathVerdict::Feasible && unknown)
      result.verdict = PathVerdict::Unknown;
    it->second = std::move(result);
    return it->second;
  }

  Answer edge_feasible(const EdgeRef& e) {
    const std::uint64_t key =
        (static_cast<std::uint64_t>(e.from) << 32) | e.succ_index;
    const auto it = edge_memo_.find(key);
    if (it != edge_memo_.end()) return it->second;
    bmc::BmcQuery q;
    q.must_take = e;
    const std::size_t slice =
        e.from < slice_of_block_.size() ? slice_of_block_[e.from] : kNone;
    return edge_memo_[key] = query(q, slice);
  }

  Answer schedule(const std::vector<EdgeRef>& choices, bool anchored,
                  const std::optional<EdgeRef>& must_take, std::size_t slice) {
    bmc::BmcQuery q;
    q.schedule = bmc::DecisionSchedule{choices, anchored};
    q.must_take = must_take;
    return query(q, slice);
  }

  /// One solver query: warm session (built lazily, timed apart), the solve
  /// itself, and the fresh-session pair that splits decision from
  /// minimisation cost.
  Answer query(const bmc::BmcQuery& q, std::size_t slice) {
    const bool sliced = slice != kNone;
    const tsys::TransitionSystem& ts = sliced ? slices_[slice]->ts : tr_->ts;
    const bmc::BmcOptions& bo = sliced ? slice_opts_[slice] : bo_;
    if (sliced && slice_sessions_.size() < slices_.size())
      slice_sessions_.resize(slices_.size());
    std::unique_ptr<bmc::Session>& s = sliced ? slice_sessions_[slice] : session_;
    if (!s) {
      L_.time("bmc.session_init_s",
              [&] { s = std::make_unique<bmc::Session>(ts, bo); });
      L_.counts["bmc.sessions"] += 1;
    }
    const double t0 = now();
    const bmc::BmcResult r = s->solve(q);
    const double dt = now() - t0;
    L_.seconds["bmc.query_s"] += dt;
    L_.query_s.push_back(dt);
    L_.counts["bmc.queries"] += 1;
    L_.counts["sat.propagations"] += r.solver_propagations;
    L_.counts["sat.conflicts"] += r.solver_conflicts;
    L_.counts["sat.decisions"] += r.solver_decisions;
    L_.max("bmc.cnf_clauses_max", static_cast<double>(r.cnf_clauses));

    L_.fresh_pair(ts, bo, q);

    Answer a;
    a.schedule_realised = r.schedule_realised;
    switch (r.status) {
      case bmc::BmcStatus::TestData:
        a.verdict = PathVerdict::Feasible;
        if (sliced) {
          L_.time("opt.expand_s", [&] {
            a.witness =
                opt::expand_witness(tr_->ts, *slices_[slice], r.initial_values);
            a.decision_trace =
                opt::replay_decisions(tr_->ts, a.witness, bo_.max_steps);
          });
        } else {
          a.witness = r.initial_values;
          a.decision_trace = r.decision_trace;
        }
        break;
      case bmc::BmcStatus::Infeasible:
        a.verdict = depth_complete_ || r.exact_path ? PathVerdict::Infeasible
                                                    : PathVerdict::Unknown;
        break;
      case bmc::BmcStatus::Unknown:
        break;
    }
    return a;
  }

  static constexpr std::size_t kNone = SIZE_MAX;
  Layers& L_;
  const minic::Program& program_;
  std::unique_ptr<cfg::FunctionCfg> f_;
  std::unique_ptr<cfg::PathAnalysis> pa_;
  core::Partition part_;
  std::unique_ptr<tsys::TranslationResult> tr_;
  bool has_back_edge_ = false;
  bool depth_complete_ = false;
  bmc::BmcOptions bo_;
  std::vector<std::vector<cfg::PathSpec>> specs_;
  std::vector<std::unique_ptr<opt::SegmentSlice>> slices_;
  std::vector<bmc::BmcOptions> slice_opts_;
  std::vector<std::size_t> slice_of_block_, slice_of_segment_;
  std::unique_ptr<bmc::Session> session_;
  std::vector<std::unique_ptr<bmc::Session>> slice_sessions_;
  std::map<std::uint64_t, Answer> edge_memo_;
  std::map<BlockId, Answer> reach_memo_;
  std::vector<Replay> replays_;
};

int run_trace(Args& a) {
  const driver::PipelineOptions opts = pipeline_options(a, 1);

  // The reference wall: Pipeline::run at --jobs=1 on the same inputs,
  // after one untimed run on the first input so that neither side pays
  // the process's cold start.
  (void)driver::Pipeline(opts).run(a.sources.front());
  double pipeline_s = 0.0;
  std::vector<driver::BatchEntry> entries;
  for (std::size_t i = 0; i < a.sources.size(); ++i) {
    const double t0 = now();
    driver::PipelineResult r = driver::Pipeline(opts).run(a.sources[i]);
    pipeline_s += now() - t0;
    if (!r.ok) {
      std::cerr << a.files[i] << ": " << r.error;
      return 2;
    }
    entries.push_back(driver::BatchEntry{a.files[i], std::move(r)});
  }

  Layers L;
  for (const std::string& source : a.sources) {
    const std::unique_ptr<minic::Program> program =
        L.time("minic.compile_s", [&] { return compile(source); });
    if (!program) return 2;
    for (const auto& fn : program->functions) {
      TracedFunction tf(L, *program, *fn, opts);
      if (!tf.ok()) return 2;
      tf.analyse();
    }
  }
  L.time("driver.render_s", [&] {
    std::ostringstream os;
    render_json(entries, opts, os);
  });

  double layer_sum = 0.0;
  for (const auto& [name, s] : L.seconds)
    if (name != "driver.render_s") layer_sum += s;
  const double query_s = L.seconds["bmc.query_s"];
  const double requests = L.counts["opt.slice_requests"];

  std::ostream& os = std::cout;
  bool first = true;
  os << "{";
  for (const char* name :
       {"minic.compile_s", "cfg.build_s", "cfg.enumerate_s", "core.partition_s",
        "tsys.translate_s", "opt.passes_s", "opt.slice_s", "opt.expand_s",
        "bmc.session_init_s", "bmc.query_s", "testgen.replay_s",
        "driver.render_s"})
    json_number(os, name, L.seconds[name], first);
  for (const char* name :
       {"cfg.paths", "core.segments", "tsys.state_bits", "opt.state_bits_saved",
        "opt.slice_dropped_vars", "bmc.sessions", "bmc.queries",
        "bmc.cnf_clauses_max", "bmc.unroll_depth_max", "sat.propagations",
        "sat.conflicts", "sat.decisions", "testgen.replays"})
    json_number(os, name, L.counts[name], first);
  json_number(os, "opt.slice_nontrivial_ratio",
              requests > 0 ? L.counts["opt.slice_nontrivial"] / requests : 0.0,
              first);
  json_number(os, "bmc.query_p50_ms", 1e3 * median(L.query_s), first);
  json_number(os, "bmc.query_max_s",
              L.query_s.empty()
                  ? 0.0
                  : *std::max_element(L.query_s.begin(), L.query_s.end()),
              first);
  json_number(os, "bmc.decide_s", L.decide_s, first);
  json_number(os, "bmc.minimise_s", L.minimise_s, first);
  json_number(os, "sat.propagations_per_s",
              query_s > 0 ? L.counts["sat.propagations"] / query_s : 0.0,
              first);
  json_number(os, "trace.layer_sum_s", layer_sum, first);
  json_number(os, "trace.coverage",
              pipeline_s > 0 ? layer_sum / pipeline_s : 0.0, first);
  os << "}\n";
  return 0;
}

// ----------------------------------------------------------- serve layers

int run_serve_layers(Args& a) {
  if (a.cache_dir.empty()) return 1;
  std::error_code ec;
  std::filesystem::remove_all(a.cache_dir, ec);
  std::filesystem::create_directories(a.cache_dir, ec);
  const driver::PipelineOptions opts = pipeline_options(a, a.jobs);
  driver::ResultCache cache(a.cache_dir, driver::CacheMode::ReadWrite,
                            a.cap_mb << 20);
  std::ostringstream warn;
  constexpr int kRepeats = 20;
  std::vector<double> store_ms, lookup_ms, handle_ms, parse_ms;
  for (std::size_t i = 0; i < a.sources.size(); ++i) {
    const std::string& src = a.sources[i];
    const driver::PipelineResult r = driver::Pipeline(opts).run(src);
    if (!r.ok) return 2;
    double t0 = now();
    cache.store(src, opts, r, warn);
    store_ms.push_back(1e3 * (now() - t0));
    for (int k = 0; k < kRepeats; ++k) {
      t0 = now();
      const auto hit = cache.lookup(src, opts, warn);
      lookup_ms.push_back(1e3 * (now() - t0));
      if (!hit) return 2;
    }
    const std::string payload =
        driver::serialize_serve_request(opts, {a.files[i]}, {src});
    for (int k = 0; k < kRepeats; ++k) {
      bool shutdown = false;
      t0 = now();
      const std::string response =
          driver::handle_serve_request(payload, cache, warn, shutdown);
      handle_ms.push_back(1e3 * (now() - t0));
      std::vector<driver::PipelineResult> reports;
      std::string error;
      t0 = now();
      const bool ok = driver::parse_serve_response(response, 1, reports, error);
      parse_ms.push_back(1e3 * (now() - t0));
      if (!ok) {
        std::cerr << "tmgbench_harness: " << error << "\n";
        return 2;
      }
    }
  }
  std::ostream& os = std::cout;
  bool first = true;
  os << "{";
  json_number(os, "driver.cache_store_ms", median(store_ms), first);
  json_number(os, "driver.cache_lookup_ms", median(lookup_ms), first);
  json_number(os, "driver.serve_handle_ms", median(handle_ms), first);
  json_number(os, "driver.wire_parse_ms", median(parse_ms), first);
  os << "}\n";
  std::filesystem::remove_all(a.cache_dir, ec);
  return 0;
}

int run_requests(Args& a) {
  const driver::PipelineOptions opts = pipeline_options(a, a.jobs);
  for (std::size_t i = 0; i < a.sources.size(); ++i)
    std::cout << driver::serialize_serve_request(
                     opts, {std::filesystem::path(a.files[i]).filename().string()},
                     {a.sources[i]})
              << "\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Args a;
  if (!parse_args(argc, argv, a)) {
    std::cerr << "usage: tmgbench_harness check|trace|serve-layers|requests "
                 "[--opt] [--jobs N] [--report OUT] [--cache-dir DIR] "
                 "[--cap-mb N] FILE...\n";
    return 1;
  }
  if (!read_sources(a)) return 2;
  if (a.mode == "check") return run_check(a);
  if (a.mode == "trace") return run_trace(a);
  if (a.mode == "serve-layers") return run_serve_layers(a);
  if (a.mode == "requests") return run_requests(a);
  std::cerr << "tmgbench_harness: unknown mode '" << a.mode << "'\n";
  return 1;
}
