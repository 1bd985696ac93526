(** The C(n, k) subset cross-validation experiment of Section 5
    (Graphs 2-3 and Table 4).

    For every k-subset of the benchmarks ("the known benchmarks") the
    experiment finds the heuristic order minimising the subset's
    average non-loop miss rate, then evaluates that order on {e all}
    benchmarks.  With n = 22, k = 11 that is 705,432 trials; subsets
    are enumerated lexicographically and the per-order subset sums are
    maintained incrementally, so the full experiment runs in seconds.

    The enumeration is split into fixed-size contiguous rank ranges
    ({!unrank} finds each range's starting combination) that run in
    parallel on the {!Par.Pool} default pool.  The decomposition is a
    function of the trial count alone, so results are bit-identical
    for any [-j].

    Ties between orders are broken toward the lower order index,
    making results deterministic. *)

type result = {
  trials : int;                  (** number of subsets examined *)
  distinct_orders : int;         (** how many orders ever won *)
  wins : (int * int) array;      (** (order index, #trials won), by
                                     descending frequency *)
  overall : float array;         (** per-order average miss rate over
                                     ALL benchmarks, indexed by order *)
}

val choose : int -> int -> int
(** Binomial coefficient. *)

val unrank : n:int -> k:int -> int -> int array
(** [unrank ~n ~k r] is the [r]-th (0-based) k-combination of
    [0 .. n-1] in lexicographic order, as a sorted array.  Raises
    [Invalid_argument] unless [0 <= r < choose n k]. *)

val rank : n:int -> k:int -> int array -> int
(** Lexicographic rank of a sorted k-combination of [0 .. n-1];
    inverse of {!unrank}. *)

val run : ?k:int -> ?max_trials:int -> float array array -> result
(** [run m] over the miss matrix from {!Ordering.miss_matrix}
    ([m.(benchmark).(order)]).  [k] defaults to half the benchmarks,
    rounded up.  [max_trials] caps the enumeration (first trials in
    lexicographic order) for quick runs; default unlimited.  Each
    8192-trial chunk first calls {!Sim.Machine.check_deadline}, so a
    walk past the deadline raises [Sim.Machine.Deadline_exceeded]. *)

val cumulative_share : result -> float array
(** Graph 2's series: cumulative fraction of all trials accounted for
    by the most common winning orders. *)
