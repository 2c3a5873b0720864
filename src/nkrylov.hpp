// Umbrella header: the complete public API of the nkrylov library.
//
//   #include "nkrylov.hpp"
//
// pulls in the precision substrate, sparse formats and generators, all
// preconditioners, all solvers, and the nested-Krylov core (F3R).
// Individual headers remain includable for finer-grained dependencies.
#pragma once

// base: precision substrate and utilities
#include "base/blas1.hpp"
#include "base/blas_block.hpp"
#include "base/env.hpp"
#include "base/half.hpp"
#include "base/options.hpp"
#include "base/rng.hpp"
#include "base/table.hpp"
#include "base/timer.hpp"
#include "base/workspace.hpp"

// sparse: formats, kernels, IO, workload generators
#include "sparse/coo_builder.hpp"
#include "sparse/csr.hpp"
#include "sparse/gen/convdiff.hpp"
#include "sparse/gen/laplace.hpp"
#include "sparse/gen/random_matrix.hpp"
#include "sparse/gen/stencil.hpp"
#include "sparse/gen/suite_standins.hpp"
#include "sparse/io_matrix_market.hpp"
#include "sparse/scaling.hpp"
#include "sparse/sell.hpp"
#include "sparse/spmm.hpp"
#include "sparse/spmv.hpp"
#include "sparse/stats.hpp"

// precond: primary preconditioners
#include "precond/ainv.hpp"
#include "precond/block_jacobi_ic0.hpp"
#include "precond/block_jacobi_ilu0.hpp"
#include "precond/jacobi.hpp"
#include "precond/neumann.hpp"
#include "precond/preconditioner.hpp"
#include "precond/ssor.hpp"

// krylov: solvers
#include "krylov/bicgstab.hpp"
#include "krylov/cg.hpp"
#include "krylov/chebyshev.hpp"
#include "krylov/fgmres.hpp"
#include "krylov/history.hpp"
#include "krylov/operator.hpp"
#include "krylov/richardson.hpp"

// core: the nested-Krylov framework, F3R, and the descriptor-driven API
#include "core/cost_model.hpp"
#include "core/engine.hpp"
#include "core/f3r.hpp"
#include "core/fingerprint.hpp"
#include "core/nested_builder.hpp"
#include "core/problem.hpp"
#include "core/registry.hpp"
#include "core/session.hpp"
#include "core/spec.hpp"
#include "core/variants.hpp"

// core/tune: the Session("auto") autotuner (features -> cost-model
// shortlist -> probe solves -> fingerprint-keyed perf-DB)
#include "core/tune/features.hpp"
#include "core/tune/perf_db.hpp"
#include "core/tune/shortlist.hpp"
#include "core/tune/tuner.hpp"
