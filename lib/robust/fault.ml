type kind = Transient | Hard | Fuel_exhausted | Timeout

type t = {
  kind : kind;
  task : string;
  message : string;
  backtrace : string option;
}

let kind_name = function
  | Transient -> "transient"
  | Hard -> "hard"
  | Fuel_exhausted -> "fuel-exhausted"
  | Timeout -> "timeout"

(* Map an exception onto the taxonomy.  [Task_failed] wrappers from
   the pool are peeled so a fault keeps the classification of the
   exception the task actually raised. *)
let rec kind_of_exn = function
  | Inject.Chaos _ -> Transient
  | Sim.Machine.Out_of_fuel _ -> Fuel_exhausted
  | Sim.Machine.Deadline_exceeded -> Timeout
  | Unix.Unix_error ((EINTR | EAGAIN | EWOULDBLOCK | EBUSY), _, _) -> Transient
  | Par.Pool.Task_failed { exn; _ } -> kind_of_exn exn
  | _ -> Hard

let is_transient e = kind_of_exn e = Transient

let rec unwrap = function
  | Par.Pool.Task_failed { exn; _ } -> unwrap exn
  | e -> e

let of_exn ?backtrace ~task exn =
  {
    kind = kind_of_exn exn;
    task;
    message = Printexc.to_string (unwrap exn);
    backtrace;
  }

let pp_banner ppf t =
  Format.fprintf ppf "!! %s FAILED [%s]: %s@." t.task (kind_name t.kind)
    t.message;
  match t.backtrace with
  | Some bt when String.trim bt <> "" ->
    Format.fprintf ppf "   backtrace:@.";
    String.split_on_char '\n' (String.trim bt)
    |> List.iter (fun line -> Format.fprintf ppf "   | %s@." line)
  | _ -> ()
