(** The execution substrate: a word-addressed interpreter for linked
    programs.

    This stands in for the paper's DECstation: it executes programs
    instruction by instruction and surfaces the events QPT's
    instrumentation observed — conditional-branch outcomes (for edge
    profiles) and indirect transfers (for break-in-control
    accounting).  Output is folded into a checksum so workloads stay
    deterministic and testable without an I/O system. *)

type t = {
  prog : Mips.Program.t;
  iregs : int array;          (** 32 integer registers; [0] stays 0 *)
  fregs : float array;        (** 32 floating registers *)
  mutable fcc : bool;         (** coprocessor-1 condition flag *)
  mem_i : int array;          (** integer view of memory, in words *)
  mem_f : float array;        (** float view of memory, in words *)
  mutable proc : int;         (** current procedure index *)
  mutable pc : int;           (** current instruction index *)
  mutable instrs : int;       (** instructions executed so far *)
  mutable checksum : int;     (** folded [print] output *)
  mutable icursor : int;
  mutable fcursor : int;
  input : Dataset.t;
  mutable dirty_lo : int;
    (** highest dirtied memory word below the midpoint, [-1] if none *)
  mutable dirty_hi : int;
    (** lowest dirtied memory word at or above the midpoint,
        [mem_words] if none *)
}

exception Fault of string
(** Runtime error (bad address, division by zero, stack overflow, …)
    with location context. *)

exception Out_of_fuel of string
(** The run exceeded its instruction (fuel) budget.  Distinct from
    {!Fault} so the supervision layer can classify runaway programs as
    [Fuel_exhausted] rather than hard errors; carries the same
    location context, with identical text from both interpreters. *)

val set_default_fuel : int -> unit
(** Set the process-wide fuel budget used when a run does not pass
    [?max_instrs] (clamped to at least 1).  Initialised from
    [BALLARUS_FUEL] when set, else 2_000_000_000. *)

val default_fuel : unit -> int
(** The fuel budget currently in force for runs without
    [?max_instrs]. *)

exception Deadline_exceeded
(** The wall-clock deadline passed; classified as [Timeout]. *)

val deadline : unit -> float
(** The process-wide wall-clock deadline (a [Unix.gettimeofday]
    time, [infinity] when unset), shared by all domains.  It bounds a
    run like fuel, but by time and cooperatively: work stops at its
    next {!check_deadline}.  {!run_decoded} checks before the first
    instruction and then once per fuel slice of 2{^16} instructions. *)

val set_deadline : float -> unit

val check_deadline : unit -> unit
(** Raise {!Deadline_exceeded} if the deadline has passed; no clock
    read when it is unset. *)

type stats = {
  instr_count : int;
  checksum : int;
  ints_read : int;
  floats_read : int;
}

val run :
  ?max_instrs:int ->
  ?on_branch:(t -> taken:bool -> unit) ->
  ?on_indirect:(t -> unit) ->
  Mips.Program.t -> Dataset.t -> stats
(** Execute the program on the dataset until [Halt] (or a return from
    the entry procedure).  [on_branch] fires at every conditional
    branch, after the condition is evaluated and before the transfer —
    [t.proc]/[t.pc] still address the branch.  [on_indirect] fires at
    jump-table transfers and indirect calls.

    Decodes with {!Decode.of_program} and runs {!run_decoded}; callers
    executing the same program many times should decode once
    themselves.

    @param max_instrs raise {!Out_of_fuel} after this many
    instructions (default: {!default_fuel}).  A program that halts in
    exactly [N] instructions succeeds with [~max_instrs:N] and runs
    out of fuel with [~max_instrs:(N - 1)]. *)

val run_decoded :
  ?max_instrs:int ->
  ?on_branch:(t -> taken:bool -> unit) ->
  ?on_indirect:(t -> unit) ->
  Decode.t -> Dataset.t -> stats
(** Like {!run} on a program decoded up front.  The hot loop keeps the
    program counter and instruction count in locals and dispatches on
    the dense {!Decode.op} code; [t.proc]/[t.pc]/[t.instrs] are
    synchronised before every [on_branch]/[on_indirect] call and every
    fault, so observers see exactly what {!run_legacy} exposes.
    Raises {!Deadline_exceeded} at its first checkpoint past the
    {!deadline}. *)

val run_legacy :
  ?max_instrs:int ->
  ?on_branch:(t -> taken:bool -> unit) ->
  ?on_indirect:(t -> unit) ->
  Mips.Program.t -> Dataset.t -> stats
(** The original variant-dispatch interpreter, kept as the reference
    implementation for differential tests against the decoded path.
    Observationally identical to {!run}: same stats, same hook
    sequence, same fault messages.  It does not check the
    {!deadline}. *)
