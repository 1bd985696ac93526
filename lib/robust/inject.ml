(* Deterministic fault injection.

   Each injection site keeps a per-site counter of how many times it
   has been consulted; whether a given consultation fires is a pure
   function of (seed, site, consultation index), drawn from
   Sim.Dataset.mix, so a run with a fixed seed injects exactly the same
   faults every time.  Sites can also be force-armed ([force]) so tests
   and the chaos smoke gate are guaranteed coverage regardless of seed
   luck.  Fired faults are counted in the metrics registry under
   [inject.<site>]. *)

type site = Cache_read | Cache_write | Task | Delay

exception Chaos of string

let site_index = function
  | Cache_read -> 0
  | Cache_write -> 1
  | Task -> 2
  | Delay -> 3

(* How often a site fires under hash-based injection: once every
   [period] consultations on average.  Task raises are rare so the
   suite still mostly succeeds; cache corruption is common so the
   recovery path gets exercised hard. *)
let period = function
  | Cache_read -> 4
  | Cache_write -> 3
  | Task -> 53
  | Delay -> 6

(* indexed by [site_index] *)
let fired_counters =
  Array.map
    (fun name -> Obs.Metrics.counter ("inject." ^ name))
    [| "cache_read"; "cache_write"; "task"; "delay" |]

let mutex = Mutex.create ()
let seed = ref None
let consulted = Array.make 4 0
let forced = Array.make 4 0

let () =
  match Sys.getenv_opt "BALLARUS_CHAOS" with
  | Some s -> ( match int_of_string_opt s with Some n -> seed := Some n | None -> ())
  | None -> ()

let set_seed s = Mutex.protect mutex (fun () -> seed := s)

let force site n =
  Mutex.protect mutex (fun () ->
      let i = site_index site in
      forced.(i) <- forced.(i) + n)

let fired site = Obs.Metrics.value fired_counters.(site_index site)

let reset () =
  Mutex.protect mutex (fun () ->
      Array.fill consulted 0 4 0;
      Array.iter (fun c -> Obs.Metrics.set c 0) fired_counters;
      Array.fill forced 0 4 0)

(* Consult a site: returns true when a fault should be injected now. *)
let decide site =
  Mutex.protect mutex (fun () ->
      let i = site_index site in
      let n = consulted.(i) in
      consulted.(i) <- n + 1;
      let hit =
        if forced.(i) > 0 then (
          forced.(i) <- forced.(i) - 1;
          true)
        else
          match !seed with
          | None -> false
          | Some s ->
            Sim.Dataset.mix ((s * 0x9E3779B9) lxor (i * 0x85EBCA6B) + n)
            mod period site
            = 0
      in
      if hit then Obs.Metrics.incr fired_counters.(i);
      hit)

(* Corrupt the cache entry at [path] on disk (truncate and garble) so
   the next read sees a damaged file.  Returns whether it fired; fires
   only when the file actually exists, keeping injected corruptions in
   one-to-one correspondence with detectable ones. *)
let corrupt_entry path =
  if not (Sys.file_exists path) then false
  else if not (decide Cache_read) then false
  else begin
    let oc = open_out_gen [ Open_wronly; Open_trunc ] 0o644 path in
    output_string oc "\x00chaos: corrupted entry\x00";
    close_out oc;
    true
  end

let fail_write () =
  if decide Cache_write then
    raise (Sys_error "injected write failure (chaos)")

let raise_in_task ~label =
  if decide Task then
    raise (Chaos (Printf.sprintf "injected task failure in %s" label))

let delay ~label:_ = if decide Delay then Unix.sleepf 0.002
