// Conformance sweep — the catalog-wide behavioral pin behind
// `ctest -L conformance`.
//
// Runs the FULL Table-2 stand-in catalog through the solver grid
//
//     standin_catalog() × {CG | BiCGStab, FGMRES(64), F3R}
//                       × {jacobi, bj-ilu0/ic0, sd-ainv}
//                       × {csr, sell}
//                       × {fp64, fp32, fp16}
//
// at the catalog's "mini" scale (negative scale: same structure classes,
// test-sized grids), writes one JSON row per cell — converged, outer
// iterations, true final relative residual — and compares against a
// committed baseline table.  The flat solvers' precision axis is the
// preconditioner storage precision (the paper's fp16-CG etc.); F3R's is
// the lowest precision of the nesting.
//
// Regression policy (exit code 1, listing every offender):
//   * a cell that converged in the baseline no longer converges
//     (guarded: baseline cells that only just squeezed under the
//     iteration cap are reported but not failed — they are cap-noise);
//   * a converged cell needs > 20% + 5 more iterations than baseline;
//   * with the full grid selected, a baseline cell that no longer runs
//     (coverage loss).
// Improvements (new convergence, fewer iterations) are reported, never
// failed — refresh the baseline with --write-baseline to adopt them.
//
// Flags:
//   --scale=-4          catalog scale (negative = mini; see make_problem)
//   --max-iters=800     flat-solver iteration cap
//   --rtol=1e-8         convergence tolerance
//   --matrices=a,b|all  subset filter (default all; subset skips the
//                       coverage-loss check)
//   --baseline=path     committed table to compare against ("" = skip)
//   --out=path          where to write this run's rows ("" = skip)
//   --write-baseline=path  write rows in baseline format and exit 0
//   --backend=name      append ";backend=name" to every cell spec and run
//                       the whole grid there (host|omp|serial; "" = spec
//                       default).  The comparison still runs against the
//                       SAME committed host baseline: serial reductions
//                       round differently, so iteration counts may move
//                       within the 20%+5 band, but convergence must not
//                       regress — that is the cross-backend conformance
//                       contract.  Unknown names exit 2 up front.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "base/backend.hpp"
#include "base/options.hpp"
#include "core/session.hpp"
#include "sparse/gen/suite_standins.hpp"

using namespace nk;

namespace {

struct Cell {
  std::string id;        ///< "<matrix>|<solver>|<precond>|<format>"
  bool converged = false;
  int iters = 0;
  double relres = 0.0;
};

std::string cell_id(const std::string& matrix, const std::string& solver,
                    const std::string& precond, const std::string& format) {
  return matrix + "|" + solver + "|" + precond + "|" + format;
}

// ------------------------------------------------------------- JSON rows

void write_rows(std::ostream& os, const std::vector<Cell>& rows, int scale) {
  os << "{\"schema\": \"nkrylov-conformance-v1\", \"scale\": " << scale
     << ", \"rows\": [\n";
  os.precision(9);
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Cell& c = rows[i];
    os << "{\"cell\": \"" << c.id << "\", \"converged\": " << (c.converged ? 1 : 0)
       << ", \"iters\": " << c.iters << ", \"relres\": " << c.relres << "}"
       << (i + 1 < rows.size() ? ",\n" : "\n");
  }
  os << "]}\n";
}

/// Minimal row reader for the format write_rows emits: one row per line,
/// fixed key order.  Lines without a "cell" key are structural and skipped.
std::map<std::string, Cell> read_baseline(const std::string& path) {
  std::map<std::string, Cell> out;
  std::ifstream f(path);
  if (!f) throw std::runtime_error("conformance: cannot open baseline " + path);
  std::string line;
  while (std::getline(f, line)) {
    const auto cpos = line.find("\"cell\": \"");
    if (cpos == std::string::npos) continue;
    const auto cbeg = cpos + 9;
    const auto cend = line.find('"', cbeg);
    if (cend == std::string::npos) continue;
    Cell c;
    c.id = line.substr(cbeg, cend - cbeg);
    int conv = 0;
    const auto vpos = line.find("\"converged\": ", cend);
    const auto ipos = line.find("\"iters\": ", cend);
    const auto rpos = line.find("\"relres\": ", cend);
    if (vpos == std::string::npos || ipos == std::string::npos || rpos == std::string::npos)
      throw std::runtime_error("conformance: malformed baseline row: " + line);
    if (std::sscanf(line.c_str() + vpos, "\"converged\": %d", &conv) != 1 ||
        std::sscanf(line.c_str() + ipos, "\"iters\": %d", &c.iters) != 1 ||
        std::sscanf(line.c_str() + rpos, "\"relres\": %lf", &c.relres) != 1)
      throw std::runtime_error("conformance: malformed baseline row: " + line);
    c.converged = conv != 0;
    out[c.id] = c;
  }
  if (out.empty()) throw std::runtime_error("conformance: baseline has no rows: " + path);
  return out;
}

// ------------------------------------------------------------ the sweep

Cell to_cell(std::string id, const SolveResult& r) {
  Cell c;
  c.id = std::move(id);
  c.converged = r.converged;
  c.iters = r.iterations;
  c.relres = r.final_relres;
  return c;
}

/// Format a double option value so SolverSpec::parse round-trips it.
std::string fmt(double v) {
  std::ostringstream os;
  os.precision(17);
  os << v;
  return os.str();
}

/// The catalog's spec string for one (solver kind, precision) cell.  Every
/// cell is constructible from this string alone (the registry coverage
/// test pins that); the baseline keys stay the legacy cell names, which
/// the solve's reporting name maps each spec back to.
std::string cell_spec(const std::string& solver_kind, const std::string& prec,
                      double rtol, int max_iters, const std::string& backend) {
  std::string s = solver_kind;
  if (solver_kind == "fgmres") s += "64";  // the paper's FGMRES(64) baseline
  s += "@" + prec;
  s += ";rtol=" + fmt(rtol);
  if (solver_kind == "f3r") {
    // Nested kinds bound outer work by restarts (default 3 → 400 outer
    // iterations); --max-iters caps only the flat solvers.  Histories are
    // dead weight at catalog scale.
    s += ";nohist";
  } else {
    s += ";max-iters=" + std::to_string(max_iters);
  }
  if (!backend.empty()) s += ";backend=" + backend;
  return s;
}

std::vector<Cell> run_grid(const std::vector<std::string>& matrices, int scale,
                           double rtol, int max_iters, const std::string& backend) {
  std::vector<Cell> rows;
  // The grid's axes come from the registry: every solver/preconditioner
  // kind tagged `conformance`, in registration order (krylov = CG|BiCGStab
  // by symmetry, fgmres, f3r × jacobi, bj, sd-ainv).
  const std::vector<std::string> solver_kinds = registry().conformance_solver_kinds();
  const std::vector<std::string> precond_kinds = registry().conformance_precond_kinds();
  const std::vector<std::string> precs = {"fp64", "fp32", "fp16"};

  for (const std::string& name : matrices) {
    for (const bool use_sell : {false, true}) {
      const std::string format = use_sell ? "sell" : "csr";
      PreparedProblem p = prepare_standin(name, scale, 7, use_sell);
      for (const std::string& pk : precond_kinds) {
        auto m = registry().make_precond(PrecondSpec::parse(pk + ";nblocks=4"), p);
        const std::string mk = m->name();
        for (const std::string& prec : precs) {
          for (const std::string& sk : solver_kinds) {
            Session s(borrow_problem(p),
                      SolverSpec::parse(cell_spec(sk, prec, rtol, max_iters, backend)),
                      m);
            const SolveResult r = s.solve();
            rows.push_back(to_cell(cell_id(name, r.solver, mk, format), r));
          }
        }
        std::cout << "." << std::flush;
      }
    }
    std::cout << " " << name << "\n";
  }
  return rows;
}

// ------------------------------------------------------- the comparison

/// Effective iteration cap for a cell: BiCGStab runs at max_iters/2 (two
/// preconditioner calls per iteration, see BiCgStabEngine) and the nested
/// F3R counts OUTER iterations capped by (max_restarts+1)·m1 = 400.
int cell_cap(const std::string& id, int max_iters) {
  if (id.find("BiCGStab") != std::string::npos) return max_iters / 2;
  if (id.find("F3R") != std::string::npos) return 400;
  return max_iters;
}

int compare(const std::vector<Cell>& rows, const std::map<std::string, Cell>& base,
            int max_iters, bool full_grid) {
  int regressions = 0, improvements = 0, fragile = 0, newcells = 0;
  std::map<std::string, bool> seen;
  for (const Cell& c : rows) {
    seen[c.id] = true;
    const auto it = base.find(c.id);
    if (it == base.end()) {
      ++newcells;
      continue;
    }
    const Cell& b = it->second;
    const int cap = cell_cap(c.id, max_iters);
    if (b.converged && !c.converged) {
      // Baseline runs that barely fit under the cap flip with thread-count
      // rounding noise; report, don't fail.
      if (b.iters > (cap * 8) / 10) {
        ++fragile;
        std::cout << "FRAGILE   " << c.id << " (baseline converged at " << b.iters
                  << " near cap " << cap << ", now did not)\n";
      } else {
        ++regressions;
        std::cout << "REGRESSED " << c.id << " (baseline converged in " << b.iters
                  << " iters, now fails, relres " << c.relres << ")\n";
      }
      continue;
    }
    if (!b.converged && c.converged) {
      ++improvements;
      continue;
    }
    if (b.converged && c.converged) {
      const int band = (b.iters * 12) / 10 + 5;
      if (c.iters > band) {
        ++regressions;
        std::cout << "REGRESSED " << c.id << " (iters " << b.iters << " -> " << c.iters
                  << ", band " << band << ")\n";
      } else if (c.iters < b.iters) {
        ++improvements;
      }
    }
  }
  if (full_grid) {
    for (const auto& [id, b] : base) {
      if (!seen.count(id)) {
        ++regressions;
        std::cout << "REGRESSED " << id << " (cell present in baseline, missing now)\n";
      }
    }
  }
  std::cout << "conformance: " << rows.size() << " cells, " << regressions
            << " regressions, " << improvements << " improvements, " << fragile
            << " fragile, " << newcells << " new\n";
  return regressions;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt(argc, argv);
  if (opt.wants_help()) {
    std::cout << "conformance_sweep --scale=-4 --max-iters=800 --rtol=1e-8 "
                 "--matrices=all --baseline=path --out=path --write-baseline=path "
                 "--backend=host|serial\n";
    return 0;
  }
  const int scale = opt.get_int("scale", -4);
  const int max_iters = opt.get_int("max-iters", 800);
  const double rtol = opt.get_double("rtol", 1e-8);
  const std::string baseline = opt.get("baseline", "");
  const std::string out = opt.get("out", "");
  const std::string write_base = opt.get("write-baseline", "");
  const std::string backend = opt.get("backend", "");
  if (!backend.empty() && !parse_backend(backend).has_value()) {
    std::cerr << "error: invalid value '" << backend << "' for --backend (known: "
              << backend_names() << ")\n";
    return 2;
  }

  std::vector<std::string> matrices = opt.get_list("matrices", {"all"});
  bool full_grid = false;
  if (matrices.size() == 1 && matrices[0] == "all") {
    matrices.clear();
    for (const auto& s : gen::standin_catalog()) matrices.push_back(s.paper_name);
    full_grid = true;
  }

  std::cout << "conformance sweep: " << matrices.size() << " matrices, scale=" << scale
            << ", rtol=" << rtol << ", max-iters=" << max_iters
            << ", backend=" << (backend.empty() ? "(spec default)" : backend) << "\n";
  const auto rows = run_grid(matrices, scale, rtol, max_iters, backend);

  if (!write_base.empty()) {
    std::ofstream f(write_base);
    if (!f) {
      std::cerr << "conformance: cannot write " << write_base << "\n";
      return 2;
    }
    write_rows(f, rows, scale);
    std::cout << "baseline written to " << write_base << " (" << rows.size() << " rows)\n";
    return 0;
  }
  if (!out.empty()) {
    std::ofstream f(out);
    if (f) {
      write_rows(f, rows, scale);
      std::cout << "rows written to " << out << "\n";
    } else {
      std::cerr << "conformance: cannot write " << out << "\n";
    }
  }
  if (baseline.empty()) {
    std::cout << "no baseline given; sweep is informational\n";
    return 0;
  }
  const auto base = read_baseline(baseline);
  const int regressions = compare(rows, base, max_iters, full_grid);
  if (regressions > 0) {
    std::cerr << "conformance sweep FAILED: " << regressions << " regression(s)\n";
    return 1;
  }
  std::cout << "conformance sweep passed\n";
  return 0;
}
