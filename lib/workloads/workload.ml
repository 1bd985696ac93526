type lang = C | F

type t = {
  name : string;
  description : string;
  lang : lang;
  spec : bool;
  source : string;
  datasets : Sim.Dataset.t list;
  traced : bool;
}

let make ?(spec = false) ?(traced = false) ~name ~description ~lang ~datasets
    source =
  if datasets = [] then invalid_arg "Workload.make: no datasets";
  { name; description; lang; spec; source; datasets; traced }

let cache : (string, Mips.Program.t) Cache.Memo.t = Cache.Memo.create ()

let compile wl =
  Cache.Memo.find_or_add cache wl.name (fun () ->
      try Minic.Frontend.compile wl.source with
      | Minic.Frontend.Error msg ->
        failwith (Printf.sprintf "workload %s: %s" wl.name msg))

let reset_cache () = Cache.Memo.clear cache

let primary_dataset wl = List.hd wl.datasets

let pp_lang ppf = function
  | C -> Format.pp_print_string ppf "C"
  | F -> Format.pp_print_string ppf "F"

let seeded_dataset ~name ~params ~size ~seed =
  let base = Sim.Dataset.of_seed ~name ~size ~seed in
  Sim.Dataset.make ~floats:base.floats ~name
    (Array.append (Array.of_list params) base.ints)
