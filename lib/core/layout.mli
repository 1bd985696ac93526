(** Prediction-guided code layout.

    The paper's motivation: architectures like the DEC Alpha predict
    forward conditional branches not taken and backward ones taken,
    "relying on a compiler to arrange code to conform to these
    expectations".  This pass is that compiler arrangement: it
    re-linearises each procedure so that every conditional branch's
    {e predicted} successor is the fall-through where possible,
    inverting branch conditions as needed, and chains blocks into
    traces along predicted edges.

    The transformation preserves semantics exactly (checksums are
    bit-identical); only the number of taken control transfers
    changes.  {!taken_transfers} measures the effect. *)

val invert : int Mips.Insn.t -> int Mips.Insn.t
(** Invert the condition of a conditional branch (target unchanged):
    [beq <-> bne], [bltz <-> bgez], [blez <-> bgtz], [bc1t <-> bc1f].
    Raises [Invalid_argument] on non-branches. *)

val reorder_proc :
  predict:(block:int -> bool) -> Mips.Program.proc -> Mips.Program.proc
(** Lay out one procedure along predicted traces.  [predict ~block]
    gives the predicted direction of the conditional branch
    terminating [block] (in the {e original} CFG's block ids); it is
    consulted only for branch-terminated blocks. *)

val apply :
  Mips.Program.t ->
  predict:(proc:int -> block:int -> bool) ->
  Mips.Program.t
(** Lay out every procedure of a program. *)

val guided :
  Database.t -> predictor:(Database.branch -> bool) -> Mips.Program.t
(** [guided db ~predictor] lays out [db.program] by {!apply}, each
    conditional branch going the way [predictor] predicts its database
    entry (for instance [Combined.predict Combined.paper_order]). *)

val taken_transfers :
  ?max_instrs:int -> Mips.Program.t -> Sim.Dataset.t ->
  int * int * Sim.Machine.stats
(** Run the program and count [(taken conditional branches,
    conditional branch executions, stats)].  Combined with {!apply}
    this quantifies how much layout helps a fall-through-predicting
    front end.

    Only a laid-out program needs this run.  For the original program
    on a profiled dataset the edge profile already holds the same
    numbers: the taken count is {!Sim.Profile.taken_execs}, the
    execution count {!Sim.Profile.branch_execs}, and the stats are the
    profile's [stats].  Layout only inverts branches and adds
    unconditional jumps, so a laid-out run executes exactly as many
    conditional branches as the original, with the same checksum. *)

val check_run :
  name:string -> Sim.Profile.t -> int * int * Sim.Machine.stats -> unit
(** [check_run ~name profile result] checks a laid-out program's
    {!taken_transfers} [result] against the original program's edge
    profile on the same dataset: the checksum and the number of
    conditional branch executions must both be equal.  Raises
    [Failure], naming [name], on a mismatch. *)
