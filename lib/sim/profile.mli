(** Edge profiling — what QPT's instrumented executables produced.

    For every conditional branch the profile records how many times
    control passed to the target and to the fall-through successor. *)

type t = {
  taken : int array array;  (** [taken.(proc).(pc)] *)
  fall : int array array;
  stats : Machine.stats;
}

val run :
  ?max_instrs:int -> ?decoded:Decode.t -> Mips.Program.t -> Dataset.t -> t
(** Execute and collect the edge profile.  [decoded], when given, must
    be the decoding of this very program and skips the per-call decode
    pass.  @raise Invalid_argument if it decodes another program
    (checked by physical equality). *)

val run_decoded : ?max_instrs:int -> Decode.t -> Dataset.t -> t
(** {!run} on a program decoded up front. *)

val run_legacy : ?max_instrs:int -> Mips.Program.t -> Dataset.t -> t
(** Edge profile via {!Machine.run_legacy}, for differential tests. *)

val taken_execs : t -> int
(** Dynamic conditional-branch executions that went to the target. *)

val branch_execs : t -> int
(** Total dynamic conditional-branch executions. *)
