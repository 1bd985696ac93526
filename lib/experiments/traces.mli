(** Trace-based IPBC experiments (Section 6): Graphs 4-11 and the
    analytic model of Graph 12. *)

val predictors_for :
  Bench_run.t -> (string * Sim.Trace_run.prediction_bits) list
(** The three predictors of the paper's trace study: Perfect (from the
    primary dataset's own profile), Heuristic (loop predictor + the
    prioritised heuristics + random default), and Loop+Rand. *)

val distributions : string -> Tracing.Ipbc.distribution list
(** The distributions of one workload (by name), one per predictor of
    {!predictors_for}; memoised in process and in {!Cache.Store}. *)

val graph_for : Format.formatter -> string -> unit
(** Cumulative sequence-length distributions for one traced workload:
    miss rate, IPBC average, dividing length, and the cumulative
    distribution by instructions for each predictor.  [graph_for
    "spice2g6"] additionally prints the by-breaks distribution
    (Graph 5). *)

val graphs4_11 : Format.formatter -> unit
(** All traced workloads (gcc, lcc, qpt, xlisp, doduc, fpppp,
    spice2g6).  Calls {!warm} first, then prints in registry order. *)

val warm : unit -> unit
(** Generate (and cache) the trace distributions of every traced
    workload, one workload per task on the {!Par.Pool} default pool. *)

val reset : unit -> unit
(** Drop the trace memo table (used by the benchmark harness to time
    cold runs). *)

val graph12 : Format.formatter -> unit
(** The model y = 1 - (1-m)^s for m in 0.025 .. 0.30. *)
