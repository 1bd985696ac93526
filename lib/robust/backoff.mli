(** Retry with jittered exponential backoff.

    The policy is fixed, and delays are a pure function of (label,
    attempt) — the jitter is drawn from {!Sim.Dataset.mix}, not the
    wall clock — so a retry schedule is exactly reproducible, which
    the determinism tests assert. *)

val max_attempts : int
(** 3: total attempts, including the first. *)

val max_delay_s : float
(** 0.25: hard cap on the actual delay, applied after jitter. *)

val delay : label:string -> attempt:int -> float
(** The jittered delay in seconds before retry [attempt] (1-based) of
    the retry loop named [label]: 2ms base, ×4 growth per retry, capped
    at {!max_delay_s}, then ±25% jitter.  Never exceeds {!max_delay_s}:
    the cap is re-applied after jitter. *)

val delays : label:string -> float list
(** The full retry-delay schedule, [max_attempts - 1] entries. *)

val retry :
  ?sleep:(float -> unit) ->
  ?on_retry:(attempt:int -> delay_s:float -> exn -> unit) ->
  ?retry_on:(exn -> bool) ->
  label:string ->
  (unit -> 'a) ->
  'a
(** [retry ~label f] runs [f], retrying on failures selected by
    [retry_on] (default {!Fault.is_transient}) up to
    {!max_attempts} total attempts, sleeping {!delay} between attempts
    inside an [Obs] span named [backoff.sleep] and bumping the
    [robust.retries] registry counter per retry.  Distinct labels
    jitter independently.  [sleep] (default [Unix.sleepf]) exists for
    tests; [on_retry] sees each retry before its sleep.  The last
    failure propagates unchanged. *)
