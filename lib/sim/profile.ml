type t = {
  taken : int array array;
  fall : int array array;
  stats : Machine.stats;
}

let run_decoded ?max_instrs (d : Decode.t) input =
  let prog = d.Decode.prog in
  let alloc () =
    Array.map
      (fun (p : Mips.Program.proc) -> Array.make (Array.length p.body) 0)
      prog.Mips.Program.procs
  in
  let taken = alloc () and fall = alloc () in
  let on_branch (m : Machine.t) ~taken:tk =
    let counts = if tk then taken else fall in
    let row = Array.unsafe_get counts m.proc in
    Array.unsafe_set row m.pc (Array.unsafe_get row m.pc + 1)
  in
  let stats = Machine.run_decoded ?max_instrs ~on_branch d input in
  { taken; fall; stats }

let run ?max_instrs ?decoded prog input =
  let d =
    match decoded with
    | Some (d : Decode.t) ->
      if d.prog != prog then
        invalid_arg "Profile.run: decoded is not a decoding of prog";
      d
    | None -> Decode.of_program prog
  in
  run_decoded ?max_instrs d input

let run_legacy ?max_instrs prog input =
  let alloc () =
    Array.map
      (fun (p : Mips.Program.proc) -> Array.make (Array.length p.body) 0)
      prog.Mips.Program.procs
  in
  let taken = alloc () and fall = alloc () in
  let on_branch (m : Machine.t) ~taken:tk =
    let counts = if tk then taken else fall in
    let row = Array.unsafe_get counts m.proc in
    Array.unsafe_set row m.pc (Array.unsafe_get row m.pc + 1)
  in
  let stats = Machine.run_legacy ?max_instrs ~on_branch prog input in
  { taken; fall; stats }

let sum rows =
  Array.fold_left (fun acc row -> Array.fold_left ( + ) acc row) 0 rows

let taken_execs t = sum t.taken
let branch_execs t = sum t.taken + sum t.fall
