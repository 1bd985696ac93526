(** Program inputs.

    A dataset is the stream of values a workload's [read()] /
    [readf()] calls consume, standing in for the input files of the
    paper's benchmark runs.  Workloads ship several datasets so the
    cross-dataset stability experiment (Section 7, Graph 13) can run. *)

type t = {
  name : string;
  ints : int array;
  floats : float array;
}

val make : ?floats:float array -> name:string -> int array -> t

val mix : int -> int
(** The splitmix64 finaliser: a bijective avalanche of the bits of its
    argument, so nearby inputs give unrelated outputs.  The
    repository's one mixer: {!of_seed}, the branch database's
    random-predictor coin, fault injection, backoff jitter and the
    fuzz generator all draw from it. *)

val of_seed : name:string -> size:int -> seed:int -> t
(** Reproducible pseudo-random dataset: [size] ints in [0, 2^20) and
    [size] floats in [0, 1), generated by a splitmix-style generator
    from [seed]. *)
