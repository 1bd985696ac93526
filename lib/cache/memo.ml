(* The mutex guards the table only; [compute] runs unlocked. *)
type ('k, 'v) t = { mutex : Mutex.t; table : ('k, 'v) Hashtbl.t }

let clear t = Mutex.protect t.mutex (fun () -> Hashtbl.reset t.table)
let registry : (unit -> unit) list ref = ref []
let registry_mutex = Mutex.create ()

let create () =
  let t = { mutex = Mutex.create (); table = Hashtbl.create 16 } in
  Mutex.protect registry_mutex (fun () ->
      registry := (fun () -> clear t) :: !registry);
  t

let find_or_add t key compute =
  match Mutex.protect t.mutex (fun () -> Hashtbl.find_opt t.table key) with
  | Some v -> v
  | None ->
    let v = compute () in
    Mutex.protect t.mutex (fun () ->
        match Hashtbl.find_opt t.table key with
        | Some first -> first
        | None ->
          Hashtbl.add t.table key v;
          v)

let reset_all () =
  let clears = Mutex.protect registry_mutex (fun () -> !registry) in
  List.iter (fun clear -> clear ()) clears
