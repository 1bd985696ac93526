(** Structured tracing and metrics.

    Two facilities behind one module:

    {b Spans} — [span ~name ~attrs f] times the execution of [f] and
    records a begin/end event into a per-domain buffer.  Recording is
    lock-free on the hot path: each domain appends to its own buffer
    (registered once, under a mutex, the first time the domain records
    anything) and the buffers are only walked at export time.  When
    tracing is disabled — the default — [span] costs a single branch
    on an atomic flag and calls [f] directly; nothing is allocated.

    Recorded spans export as Chrome [trace_event] JSON ([ph:"X"]
    complete events, microsecond timestamps, the domain id as [tid]),
    loadable in [chrome://tracing] or Perfetto.  Arm export with
    [--trace FILE] on the CLIs or [BALLARUS_TRACE=FILE] in the
    environment; the file is written at process exit.  The same
    events give the per-name count, sum, p50, p95 and max that
    [bpredict stats] prints ({!span_stats}); percentiles are
    nearest-rank, so every value is a measured duration.

    {b Metrics} — a process-wide registry of named counters
    ({!Metrics}).  Counters are always on (atomic increments),
    independent of the span flag.

    Timestamps come from [Unix.gettimeofday] — monotonic-ish: good
    enough to order and measure spans, not hardened against clock
    steps. *)

(** {1 Spans} *)

val enabled : unit -> bool
(** Whether spans are being recorded. *)

val enable : unit -> unit
(** Start recording spans. *)

val disable : unit -> unit
(** Stop recording.  Already-recorded events are kept. *)

val span : name:string -> ?attrs:(string * string) list -> (unit -> 'a) -> 'a
(** [span ~name ~attrs f] runs [f], recording one complete event with
    begin time, duration, the calling domain's id, and [attrs].  The
    result (or exception, with its backtrace intact) passes through
    unchanged.  When disabled this is exactly [f ()] after one flag
    check. *)

type event = {
  name : string;
  attrs : (string * string) list;
  ts_us : float;  (** begin timestamp, microseconds *)
  dur_us : float;  (** duration, microseconds *)
  tid : int;  (** id of the domain that ran the span *)
}

val events : unit -> event list
(** Every event recorded so far, across all domains, in begin-time
    order. *)

val reset_events : unit -> unit
(** Drop all recorded events, and with them the {!span_stats}. *)

(** {1 Span statistics} *)

type stats = {
  count : int;
  sum : float;
  p50 : float;  (** the ⌈0.5·count⌉-th smallest value *)
  p95 : float;  (** the ⌈0.95·count⌉-th smallest value *)
  max : float;
}

val summarize : float list -> stats
(** Count, sum, nearest-rank p50 and p95, and max of the values; all
    zero on the empty list. *)

val span_stats : unit -> (string * stats) list
(** {!summarize} of each span name's recorded [dur_us] values, in
    microseconds, sorted by name. *)

val trace_json : unit -> string
(** The recorded events as a Chrome [trace_event] JSON document. *)

(** The JSON string format, owned in one place: the escaping
    {!trace_json} writes and a reader that decodes every escape it
    emits. *)
module Json : sig
  type t =
    | Null
    | Num of float
    | Str of string
    | Arr of t list
    | Obj of (string * t) list

  exception Bad of string
  (** Malformed input, with the byte offset where parsing stopped. *)

  val escape : string -> string
  (** The body of a JSON string literal for these bytes: double quote,
      backslash, newline, tab and carriage return escaped by name, other
      bytes below 0x20 as [\u00XX], everything else verbatim. *)

  val parse : string -> t
  (** Parse one JSON document (surrounding whitespace allowed).
      Decodes every escape JSON defines: the quote, backslash, slash,
      [b], [f], [n], [r] and [t] escapes and [\uXXXX] (to UTF-8; UTF-16
      surrogate halves are rejected).
      Booleans are not part of {!t} and are rejected, as is any other
      malformed literal.  Raises {!Bad}. *)

  val member : string -> t -> t option
  (** [member k v] is field [k] of object [v], [None] if [v] is not an
      object or has no such field. *)
end

val write_trace : string -> unit
(** Write {!trace_json} to a file. *)

val set_trace_file : string option -> unit
(** [set_trace_file (Some path)] enables recording and arranges for
    the trace to be written to [path] at process exit ([--trace]).
    [None] cancels the exit-time write (recording stays as it is).
    [BALLARUS_TRACE=path] in the environment does the same at program
    start. *)

val trace_file : unit -> string option
(** The exit-time trace destination currently armed, if any. *)

(** {1 Metrics} *)

module Metrics : sig
  type counter

  val counter : string -> counter
  (** The counter registered under this name, created at zero on first
      use.  One instance per name, shared process-wide. *)

  val incr : ?by:int -> counter -> unit
  val value : counter -> int
  val set : counter -> int -> unit

  val counters : unit -> (string * int) list
  (** All registered counters, sorted by name. *)

  val reset : unit -> unit
  (** Zero every registered counter. *)
end

val dump : Format.formatter -> unit
(** Human-readable report of every counter and of {!span_stats} in
    seconds (the [bpredict stats] output). *)
