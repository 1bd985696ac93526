(** Trace-based break-in-control accounting (Section 6).

    A {e break in control} is a mispredicted conditional branch, an
    indirect jump other than a procedure return, or an indirect call.
    Each break ends a sequence of instructions; the sequences
    partition the instruction trace.  Rather than storing traces, the
    simulator streams them: for each static predictor it keeps the
    position of the previous break and buckets each completed
    sequence's length, exactly reproducing the paper's methodology
    (1000 buckets of width 10, last bucket open-ended).

    Several predictors are measured in one execution, since static
    predictions cannot influence the program's behaviour. *)

type prediction_bits = bool array array
(** [bits.(proc).(pc)] = predict taken; meaningful only at
    conditional-branch pcs. *)

type result = {
  label : string;
  seq_counts : int array;  (** sequences per length bucket *)
  seq_sums : int array;    (** summed lengths per bucket *)
  breaks : int;
  cond_misses : int;       (** mispredicted conditional branches *)
  cond_execs : int;        (** conditional branches executed *)
  instr_count : int;
}

val bucket_width : int
(** 10, as in the paper. *)

val nbuckets : int
(** 1000; bucket j holds lengths in [10j, 10j+9], the last bucket
    everything at or above 9990. *)

val run :
  ?max_instrs:int ->
  ?decoded:Decode.t ->
  Mips.Program.t -> Dataset.t -> (string * prediction_bits) list ->
  result list
(** Execute once, measuring every labelled predictor.  [decoded], when
    given, must be the decoding of this very program and skips the
    per-call decode pass.  @raise Invalid_argument if it decodes
    another program (checked by physical equality). *)
