exception Task_failed of {
  index : int;
  exn : exn;
  backtrace : Printexc.raw_backtrace;
}

let () =
  Printexc.register_printer (function
    | Task_failed { index; exn; _ } ->
      Some
        (Printf.sprintf "Par.Pool.Task_failed(task %d: %s)" index
           (Printexc.to_string exn))
    | _ -> None)

type failure = { index : int; exn : exn; backtrace : Printexc.raw_backtrace }

(* One in-flight fork-join job.  Indices are claimed through [next];
   [finished] counts completed bodies so the caller can wait for the
   stragglers that other domains are still running.  Stale workers that
   wake up after the job is drained claim an index >= total and leave
   without touching anything.  The first failure is recorded in the job
   itself (guarded by the pool mutex) — never in the pool — so an
   orphaned straggler from an earlier job can never poison a later
   one. *)
type job = {
  body : int -> unit;
  total : int;
  next : int Atomic.t;
  finished : int Atomic.t;
  mutable failure : failure option; (* guarded by the pool mutex *)
}

type t = {
  size : int; (* worker domains + the calling domain *)
  mutex : Mutex.t;
  work : Condition.t; (* new job posted, or shutdown *)
  idle : Condition.t; (* some job finished its last task *)
  mutable generation : int;
  mutable job : job option;
  mutable stopped : bool;
  mutable workers : unit Domain.t list;
}

let jobs t = t.size

let has_pending_job t =
  Mutex.protect t.mutex (fun () ->
      match t.job with Some _ -> true | None -> false)

(* Claim and run indices until the job is drained.  Exceptions are
   recorded (first wins, with its backtrace) but never abort the join:
   [finished] is incremented regardless, so the caller cannot deadlock
   and the worker domains survive to serve the next job. *)
let execute t (j : job) =
  let rec grab () =
    let i = Atomic.fetch_and_add j.next 1 in
    if i < j.total then begin
      (try j.body i
       with e ->
         let bt = Printexc.get_raw_backtrace () in
         Mutex.lock t.mutex;
         if j.failure = None then
           j.failure <- Some { index = i; exn = e; backtrace = bt };
         Mutex.unlock t.mutex);
      let f = 1 + Atomic.fetch_and_add j.finished 1 in
      if f = j.total then begin
        Mutex.lock t.mutex;
        Condition.broadcast t.idle;
        Mutex.unlock t.mutex
      end;
      grab ()
    end
  in
  grab ()

let rec worker_loop t last_gen =
  Mutex.lock t.mutex;
  while (not t.stopped) && t.generation = last_gen do
    Condition.wait t.work t.mutex
  done;
  if t.stopped then Mutex.unlock t.mutex
  else begin
    let gen = t.generation in
    let job = t.job in
    Mutex.unlock t.mutex;
    (match job with Some j -> execute t j | None -> ());
    worker_loop t gen
  end

let create ~jobs =
  let size = max 1 jobs in
  let t =
    {
      size;
      mutex = Mutex.create ();
      work = Condition.create ();
      idle = Condition.create ();
      generation = 0;
      job = None;
      stopped = false;
      workers = [];
    }
  in
  t.workers <- List.init (size - 1) (fun _ -> Domain.spawn (fun () -> worker_loop t 0));
  t

let shutdown t =
  Mutex.lock t.mutex;
  t.stopped <- true;
  Condition.broadcast t.work;
  Mutex.unlock t.mutex;
  let ws = t.workers in
  t.workers <- [];
  List.iter Domain.join ws

let raise_failure { index; exn; backtrace } =
  Printexc.raise_with_backtrace
    (Task_failed { index; exn; backtrace })
    backtrace

(* Every fork-join job is counted in the metrics registry (both the
   sequential fast path and the pool path), so the bench JSON can
   report how much work went through the pool. *)
let jobs_counter = Obs.Metrics.counter "pool.jobs"
let tasks_counter = Obs.Metrics.counter "pool.tasks"

(* Sequential execution: the first exception stops the loop and is
   re-raised as [Task_failed] carrying the task index. *)
let run_seq n body =
  Obs.Metrics.incr jobs_counter;
  Obs.Metrics.incr ~by:n tasks_counter;
  let i = ref 0 in
  try
    while !i < n do
      body !i;
      incr i
    done
  with e ->
    let bt = Printexc.get_raw_backtrace () in
    raise_failure { index = !i; exn = e; backtrace = bt }

let run t n body =
  if n > 0 then begin
    if t.size = 1 || n = 1 then
      (* sequential fast path: no handoff, ascending order *)
      run_seq n body
    else begin
      Obs.Metrics.incr jobs_counter;
      Obs.Metrics.incr ~by:n tasks_counter;
      Obs.span ~name:"pool.job" ~attrs:[ ("tasks", string_of_int n) ]
        (fun () ->
          let j =
            {
              body;
              total = n;
              next = Atomic.make 0;
              finished = Atomic.make 0;
              failure = None;
            }
          in
          Mutex.lock t.mutex;
          t.job <- Some j;
          t.generation <- t.generation + 1;
          Condition.broadcast t.work;
          Mutex.unlock t.mutex;
          execute t j;
          Mutex.lock t.mutex;
          while Atomic.get j.finished < n do
            Condition.wait t.idle t.mutex
          done;
          let fail = j.failure in
          (* Drop the drained job: its [body] closure captures whatever
             the caller fed it (arrays, workload state), which must not
             stay live until the next [run].  A stale worker waking up
             later sees a changed generation with [job = None] and goes
             back to sleep. *)
          t.job <- None;
          Mutex.unlock t.mutex;
          match fail with Some f -> raise_failure f | None -> ())
    end
  end

let parallel_for t ?chunk ?(min_per_domain = 0) n body =
  if n > 0 then begin
    (* fewer than two domains' worth of [min_per_domain] items do not
       amortise the fork-join handoff *)
    if n < 2 * min_per_domain then run_seq n body
    else begin
      let chunk =
        match chunk with
        | Some c -> max 1 c
        | None -> max 1 (n / (t.size * 4)) (* ~4 tasks per domain *)
      in
      let nchunks = (n + chunk - 1) / chunk in
      run t nchunks (fun c ->
          let lo = c * chunk and hi = min n ((c + 1) * chunk) in
          for i = lo to hi - 1 do
            body i
          done)
    end
  end

let parallel_map t f a =
  let n = Array.length a in
  if n = 0 then [||]
  else begin
    let out = Array.make n None in
    run t n (fun i -> out.(i) <- Some (f a.(i)));
    Array.map Option.get out
  end

let parallel_map_list t f l = Array.to_list (parallel_map t f (Array.of_list l))

let reduce t ~n ~chunk ~map ~merge ~init () =
  if n <= 0 then init
  else begin
    let chunk = max 1 chunk in
    let nchunks = (n + chunk - 1) / chunk in
    let parts = Array.make nchunks None in
    (* [batch] adjacent chunks share one scheduled task, ~4 tasks per
       domain.  Each chunk is still mapped over its own [lo, hi) and
       merged in ascending chunk order, so batching changes scheduling
       granularity only — never the result. *)
    let batch = max 1 (nchunks / (t.size * 4)) in
    let ntasks = (nchunks + batch - 1) / batch in
    run t ntasks (fun task ->
        let cfirst = task * batch in
        let clast = min nchunks ((task + 1) * batch) - 1 in
        for c = cfirst to clast do
          let lo = c * chunk and hi = min n ((c + 1) * chunk) in
          parts.(c) <- Some (map lo hi)
        done);
    Array.fold_left (fun acc p -> merge acc (Option.get p)) init parts
  end

(* ---- the process-wide default pool ---- *)

let env_jobs () =
  match Sys.getenv_opt "BALLARUS_JOBS" with
  | None -> None
  | Some s -> (
    match int_of_string_opt (String.trim s) with
    | Some n when n >= 1 -> Some n
    | _ -> None)

let jobs_override : int option ref = ref None
let default_pool : t option ref = ref None
let default_mutex = Mutex.create ()
let exit_hook_installed = ref false

let requested_jobs () =
  match !jobs_override with Some _ as r -> r | None -> env_jobs ()

(* Without an explicit override the width is clamped to the hardware's
   recommended domain count: oversubscribing domains on a small host
   makes every parallel stage slower, not faster. *)
let effective_jobs () =
  match requested_jobs () with
  | Some n -> n
  | None -> Domain.recommended_domain_count ()

let set_jobs n =
  let n = max 1 n in
  Mutex.lock default_mutex;
  jobs_override := Some n;
  let stale =
    match !default_pool with
    | Some p when jobs p <> n ->
      default_pool := None;
      Some p
    | _ -> None
  in
  Mutex.unlock default_mutex;
  match stale with Some p -> shutdown p | None -> ()

let get () =
  Mutex.lock default_mutex;
  let p =
    match !default_pool with
    | Some p -> p
    | None ->
      let p = create ~jobs:(effective_jobs ()) in
      default_pool := Some p;
      if not !exit_hook_installed then begin
        exit_hook_installed := true;
        at_exit (fun () ->
            Mutex.lock default_mutex;
            let p = !default_pool in
            default_pool := None;
            Mutex.unlock default_mutex;
            match p with Some p -> shutdown p | None -> ())
      end;
      p
  in
  Mutex.unlock default_mutex;
  p
