(** Retry with jittered exponential backoff.

    Delays are a pure function of (policy, label, attempt) — the
    jitter is drawn from {!Sim.Dataset.mix}, not the wall clock — so a
    retry schedule is exactly reproducible, which the determinism
    tests assert. *)

type policy = {
  max_attempts : int;  (** total attempts, including the first *)
  base_delay_s : float;  (** delay before the first retry *)
  multiplier : float;  (** exponential growth per retry *)
  max_delay_s : float;
      (** hard cap on the actual delay, applied after jitter *)
  jitter : float;  (** width of the jitter band, e.g. 0.5 = ±25% *)
}

val default_policy : policy
(** 3 attempts, 2ms base, ×4 growth, 250ms cap, ±25% jitter. *)

val delay : policy -> label:string -> attempt:int -> float
(** The (jittered) delay in seconds before retry [attempt] (1-based)
    of the retry loop named [label].  Never exceeds [max_delay_s]: the
    cap is re-applied after jitter. *)

val delays : policy -> label:string -> float list
(** The full retry-delay schedule, [max_attempts - 1] entries. *)

val retry :
  ?policy:policy ->
  ?sleep:(float -> unit) ->
  ?on_retry:(attempt:int -> delay_s:float -> exn -> unit) ->
  ?retry_on:(exn -> bool) ->
  label:string ->
  (unit -> 'a) ->
  'a
(** [retry ~label f] runs [f], retrying on failures selected by
    [retry_on] (default {!Fault.is_transient}) up to
    [policy.max_attempts] total attempts, sleeping {!delay} between
    attempts and bumping the [robust.retries] registry counter per
    retry.  Distinct labels jitter independently.  [sleep] (default
    [Unix.sleepf]) and [on_retry] exist for tests.  The last failure
    propagates unchanged. *)
