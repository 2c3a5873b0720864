// Shared plumbing for the figure/table reproduction benches.
//
// Every bench binary accepts:
//   --matrices=a,b,c   matrix subset (paper names; "all" = full Table 2 set)
//   --scale=N          linear-size multiplier for the generated problems
//   --rtol=X           convergence tolerance (paper: 1e-8)
//   --max-iters=N      cap for the flat solvers (paper: 19200)
//   --runs=N           repetitions; the minimum time is reported (paper
//                      averages 3 runs; min is steadier on shared machines)
//   --nblocks=N        block count for block-Jacobi ILU(0)/IC(0)
//   --csv=path         also write the result table as CSV
//   --best             include the fp16-F3R-best parameter search (slow)
//   --format=csr|sell  sparse storage for the solver operators (sell =
//                      sliced ELLPACK, the paper's GPU-node layout)
//
// Default matrix subsets are chosen so the whole bench suite finishes in
// minutes on a single core; pass --matrices=all --scale=2 (or more) for
// paper-scale runs.
#pragma once

#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "base/env.hpp"
#include "base/options.hpp"
#include "base/table.hpp"
#include "core/f3r.hpp"
#include "core/session.hpp"
#include "sparse/gen/suite_standins.hpp"

namespace nk::bench {

struct BenchConfig {
  std::vector<std::string> matrices;
  int scale = 1;
  double rtol = 1e-8;
  int max_iters = 3000;
  int runs = 1;
  int nblocks = 64;
  std::string csv;
  bool best = false;
  bool gpu_sim = false;
  std::string format = "csr";  ///< sparse storage: "csr" or "sell"

  [[nodiscard]] bool use_sell() const { return format == "sell"; }

  /// Parse a solver spec and apply this run's --rtol/--max-iters to it.
  [[nodiscard]] SolverSpec spec(const std::string& text) const {
    SolverSpec s = SolverSpec::parse(text);
    s.rtol = rtol;
    s.max_iters = max_iters;
    return s;
  }
};

inline BenchConfig parse_bench_options(const Options& opt,
                                       std::vector<std::string> default_matrices) {
  // A typo'd NKRYLOV_BACKEND must kill the bench up front, not tag hours
  // of records with a backend the run never used.
  require_backend_env_cli();
  BenchConfig c;
  c.matrices = opt.get_list("matrices", default_matrices);
  if (c.matrices.size() == 1 && c.matrices[0] == "all") {
    c.matrices.clear();
    for (const auto& s : gen::standin_catalog()) c.matrices.push_back(s.paper_name);
  }
  if (c.matrices.size() == 1 && c.matrices[0] == "sym") c.matrices = gen::symmetric_set();
  if (c.matrices.size() == 1 && c.matrices[0] == "nonsym")
    c.matrices = gen::nonsymmetric_set();
  c.scale = opt.get_int("scale", 1);
  c.rtol = opt.get_double("rtol", 1e-8);
  c.max_iters = opt.get_int("max-iters", 3000);
  c.runs = opt.get_int("runs", 1);
  c.nblocks = opt.get_int("nblocks", 64);
  c.csv = opt.get("csv", "");
  c.best = opt.get_bool("best", false);
  c.gpu_sim = opt.get_bool("gpu-sim", false);
  c.format = opt.get("format", "csr");
  if (c.format != "csr" && c.format != "sell") {
    // Same discipline as the Options numeric parsers: one line naming the
    // flag, then exit(2) — not an uncaught throw that hides the flag.
    std::cerr << "error: invalid value '" << c.format << "' for --format (csr|sell)\n";
    std::exit(2);
  }
  return c;
}

inline void print_header(const std::string& what, const BenchConfig& c) {
  std::cout << "nkrylov bench: " << what << "\n";
  std::cout << "env: " << env_summary() << "\n";
  std::cout << "config: scale=" << c.scale << " rtol=" << c.rtol
            << " max-iters=" << c.max_iters << " runs=" << c.runs
            << " nblocks=" << c.nblocks << " format=" << c.format
            << (c.gpu_sim ? " [GPU-sim]" : " [CPU]") << "\n";
  std::cout << "matrices:";
  for (const auto& m : c.matrices) std::cout << " " << m;
  std::cout << "\n";
}

/// Re-run a solve `runs` times and keep the fastest (convergence metadata
/// is identical across runs because everything is deterministic).
template <class Fn>
SolveResult best_of(int runs, Fn&& fn) {
  SolveResult best = fn();
  for (int r = 1; r < runs; ++r) {
    SolveResult next = fn();
    if (next.seconds < best.seconds) best = next;
  }
  return best;
}

/// "1.43x" (or "-" when the solver failed).
inline std::string speedup_cell(const SolveResult& base, const SolveResult& r) {
  if (!r.converged) return "-";
  if (!base.converged || base.seconds <= 0.0) return "?";
  return Table::fmt(base.seconds / r.seconds, 2) + "x";
}

inline void finish_table(Table& t, const BenchConfig& c) {
  t.print(std::cout);
  if (!c.csv.empty() && t.write_csv(c.csv)) std::cout << "(csv written to " << c.csv << ")\n";
}

// ---------------------------------------------------------------------------
// Machine-readable perf records (BENCH_*.json) — the repo's perf trajectory.
// One flat array of records so downstream tooling can diff runs:
//   {"name": ..., "n": ..., "nnz": ..., "seconds": ..., "gbps": ...}
// ---------------------------------------------------------------------------

/// One timed kernel/solver measurement.
struct PerfRecord {
  std::string name;     ///< kernel id, e.g. "spmv_sell_fp16_fp32"
  std::int64_t n = 0;   ///< problem size (rows / vector length)
  std::int64_t nnz = 0; ///< nonzeros (0 for BLAS-1 kernels)
  double seconds = 0.0; ///< min wall time of one kernel invocation
  double gbps = 0.0;    ///< effective memory bandwidth (0 if not meaningful)
};

/// Collects PerfRecords and writes them as a JSON document with enough
/// environment metadata to interpret the numbers later.
class JsonReport {
 public:
  explicit JsonReport(std::string tool) : tool_(std::move(tool)) {}

  void add(PerfRecord r) { records_.push_back(std::move(r)); }
  void add(const std::string& name, std::int64_t n, std::int64_t nnz, double seconds,
           double gbps) {
    records_.push_back({name, n, nnz, seconds, gbps});
  }

  [[nodiscard]] const std::vector<PerfRecord>& records() const { return records_; }

  /// Serialize the whole report ({schema, tool, env, threads, records}).
  [[nodiscard]] std::string to_json() const {
    std::ostringstream os;
    os.precision(9);
    os << "{\n  \"schema\": \"nkrylov-bench-v1\",\n";
    os << "  \"tool\": \"" << escape(tool_) << "\",\n";
    os << "  \"env\": \"" << escape(env_summary()) << "\",\n";
    os << "  \"threads\": " << num_threads() << ",\n";
    os << "  \"records\": [";
    for (std::size_t i = 0; i < records_.size(); ++i) {
      const auto& r = records_[i];
      os << (i ? ",\n    " : "\n    ");
      os << "{\"name\": \"" << escape(r.name) << "\", \"n\": " << r.n
         << ", \"nnz\": " << r.nnz << ", \"seconds\": " << r.seconds
         << ", \"gbps\": " << r.gbps << "}";
    }
    os << "\n  ]\n}\n";
    return os.str();
  }

  /// Write to `path`; returns false (and reports) on I/O failure.
  bool write(const std::string& path) const {
    std::ofstream f(path);
    if (!f) {
      std::cerr << "JsonReport: cannot open " << path << "\n";
      return false;
    }
    f << to_json();
    return static_cast<bool>(f);
  }

 private:
  static std::string escape(const std::string& s) {
    std::string out;
    out.reserve(s.size());
    for (char c : s) {
      if (c == '"' || c == '\\') out.push_back('\\');
      if (static_cast<unsigned char>(c) < 0x20) continue;  // control chars: drop
      out.push_back(c);
    }
    return out;
  }

  std::string tool_;
  std::vector<PerfRecord> records_;
};

}  // namespace nk::bench
