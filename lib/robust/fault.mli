(** The typed error taxonomy of the supervision layer.

    Every failure crossing a fault boundary is classified into one of
    four kinds, which decides the recovery action: [Transient]
    failures are retried with backoff, everything else fails the task
    once (and the suite degrades gracefully around it). *)

type kind =
  | Transient  (** interrupted I/O, injected chaos — worth retrying *)
  | Hard  (** a genuine bug or unrecoverable error — never retried *)
  | Fuel_exhausted  (** the interpreter's step budget ran out *)
  | Timeout
      (** the task ran past its wall-clock deadline
          ({!Sim.Machine.Deadline_exceeded}) *)

type t = {
  kind : kind;
  task : string;  (** supervisor label of the failed task *)
  message : string;
  backtrace : string option;
}

val kind_name : kind -> string
(** Lower-case hyphenated name, e.g. ["fuel-exhausted"]. *)

val kind_of_exn : exn -> kind
(** Classify an exception; {!Par.Pool.Task_failed} wrappers are peeled
    first so the inner exception decides. *)

val is_transient : exn -> bool

val unwrap : exn -> exn
(** Strip any {!Par.Pool.Task_failed} wrappers. *)

val of_exn : ?backtrace:string -> task:string -> exn -> t

val pp_banner : Format.formatter -> t -> unit
(** The structured failure banner printed into a degraded suite run. *)
