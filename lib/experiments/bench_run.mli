(** Compiled-and-profiled benchmarks, memoised.

    A [t] joins everything the experiment drivers need for one
    workload: the compiled program, its pre-decoded form, its
    per-procedure CFG analyses, the edge profile of the primary
    dataset, and the resulting branch database.

    Profiles are additionally memoised on disk through {!Cache.Store}
    (keyed by program and dataset content), so a warm process skips
    simulation entirely. *)

type t = {
  wl : Workloads.Workload.t;
  prog : Mips.Program.t;
  decoded : Sim.Decode.t;  (** [prog] pre-decoded, for re-simulation *)
  analyses : Cfg.Analysis.t array;
  profile : Sim.Profile.t;
  db : Predict.Database.t;
}

val load : Workloads.Workload.t -> t
(** Compile, analyse, and profile on the primary dataset (memoised per
    workload name; safe to call from multiple domains). *)

val load_all : unit -> t list
(** All benchmarks of {!Workloads.Registry.all}.  The independent
    per-workload pipelines fan out across the {!Par.Pool} default
    pool; the returned list is in registry order regardless of [-j]. *)

val load_named : string list -> t list
(** Like {!load_all} for a named subset, in the given order. *)

val reset : unit -> unit
(** Drop every memo table (including the workload compile cache) so
    the benchmark harness can time cold pipelines. *)

val db_for : t -> Sim.Dataset.t -> Predict.Database.t
(** Branch database for any of the workload's datasets.  For the
    primary dataset (matched by name) this is [t.db] itself, with no
    further simulation; any other dataset is profiled afresh and its
    database memoised per (workload, dataset) pair. *)

val prediction_bits :
  t -> (Predict.Database.branch -> bool) -> Sim.Trace_run.prediction_bits
(** Materialise a static predictor into the per-pc bit arrays the
    trace runner consumes. *)
