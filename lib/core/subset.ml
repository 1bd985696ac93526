type result = {
  trials : int;
  distinct_orders : int;
  wins : (int * int) array;
  overall : float array;
}

let choose n k =
  if k < 0 || k > n then 0
  else begin
    let k = min k (n - k) in
    let acc = ref 1 in
    for i = 1 to k do
      acc := !acc * (n - k + i) / i
    done;
    !acc
  end

let unrank ~n ~k r =
  if k < 0 || k > n then invalid_arg "Subset.unrank: bad subset size";
  if r < 0 || r >= choose n k then invalid_arg "Subset.unrank: rank out of range";
  let comb = Array.make k 0 in
  let r = ref r in
  let v = ref 0 in
  for i = 0 to k - 1 do
    (* smallest member for slot [i] whose block of combinations still
       covers the remaining rank *)
    let rec settle () =
      let block = choose (n - 1 - !v) (k - 1 - i) in
      if !r >= block then begin
        r := !r - block;
        incr v;
        settle ()
      end
    in
    settle ();
    comb.(i) <- !v;
    incr v
  done;
  comb

let rank ~n ~k comb =
  if Array.length comb <> k then invalid_arg "Subset.rank: bad subset size";
  let r = ref 0 in
  let prev = ref (-1) in
  Array.iteri
    (fun i ci ->
      if ci <= !prev || ci >= n then
        invalid_arg "Subset.rank: not a sorted combination over 0..n-1";
      for v = !prev + 1 to ci - 1 do
        r := !r + choose (n - 1 - v) (k - 1 - i)
      done;
      prev := ci)
    comb;
  !r

(* Lexicographically next k-combination of 0..n-1 in place; false at
   the last combination. *)
let next_combination comb n =
  let k = Array.length comb in
  let rec bump i =
    if i < 0 then false
    else if comb.(i) < n - k + i then begin
      comb.(i) <- comb.(i) + 1;
      for j = i + 1 to k - 1 do
        comb.(j) <- comb.(j - 1) + 1
      done;
      true
    end
    else bump (i - 1)
  in
  bump (k - 1)

(* Ranks are enumerated in fixed chunks of this many trials.  Each
   chunk unranks its starting combination, sums its rows afresh, and
   then runs the incremental-delta walk; chunks are the unit of
   parallelism.  The decomposition depends only on the trial count —
   never on the domain count — so the floating-point accumulations
   (and hence every argmin tie) are bit-identical at any [-j]. *)
let chunk_trials = 8192

(* Walk the [len] combinations of rank [lo .. lo+len-1] and return the
   per-order win counts for this range.  Each chunk starts at a
   deadline checkpoint, so a timed-out walk stops within one chunk. *)
let walk_range (m : float array array) ~nb ~no ~k lo len =
  Sim.Machine.check_deadline ();
  let comb = unrank ~n:nb ~k lo in
  let cur = Array.make no 0. in
  Array.iter
    (fun b ->
      let row = m.(b) in
      for o = 0 to no - 1 do
        cur.(o) <- cur.(o) +. Array.unsafe_get row o
      done)
    comb;
  let win_counts = Array.make no 0 in
  let argmin () =
    let best = ref 0 and best_v = ref (Array.unsafe_get cur 0) in
    for o = 1 to no - 1 do
      let v = Array.unsafe_get cur o in
      if v < !best_v then begin
        best_v := v;
        best := o
      end
    done;
    !best
  in
  let record () =
    let w = argmin () in
    win_counts.(w) <- win_counts.(w) + 1
  in
  (* Row deltas between consecutive combinations, in the order the
     sorted-merge below emits them.  Almost every step replaces a
     single member, leaving one subtracted and one added row; that
     pair gets a fused update-and-argmin pass.  Per element the fused
     pass performs the exact operation sequence of the separate
     full-array passes — [(cur -. s) +. a] when the subtraction is
     emitted first, [(cur +. a) -. s] otherwise — so the trailing-bit
     behaviour, and with it every argmin tie, is unchanged. *)
  let op_sub = Array.make (2 * k) false in
  let op_row = Array.make (2 * k) [||] in
  let fused_record sub0 r0 r1 =
    let v0 =
      if sub0 then (cur.(0) -. r0.(0)) +. r1.(0)
      else (cur.(0) +. r0.(0)) -. r1.(0)
    in
    cur.(0) <- v0;
    let best = ref 0 and best_v = ref v0 in
    if sub0 then
      for o = 1 to no - 1 do
        let v =
          (Array.unsafe_get cur o -. Array.unsafe_get r0 o)
          +. Array.unsafe_get r1 o
        in
        Array.unsafe_set cur o v;
        if v < !best_v then begin
          best_v := v;
          best := o
        end
      done
    else
      for o = 1 to no - 1 do
        let v =
          (Array.unsafe_get cur o +. Array.unsafe_get r0 o)
          -. Array.unsafe_get r1 o
        in
        Array.unsafe_set cur o v;
        if v < !best_v then begin
          best_v := v;
          best := o
        end
      done;
    win_counts.(!best) <- win_counts.(!best) + 1
  in
  let prev = Array.copy comb in
  record ();
  for _ = 2 to len do
    Array.blit comb 0 prev 0 k;
    if not (next_combination comb nb) then
      invalid_arg "Subset.walk_range: range past the last combination";
    (* Symmetric difference between the sorted [prev] and [comb]. *)
    let nops = ref 0 in
    let emit is_sub b =
      op_sub.(!nops) <- is_sub;
      op_row.(!nops) <- m.(b);
      incr nops
    in
    let i = ref 0 and j = ref 0 in
    while !i < k || !j < k do
      if !i < k && !j < k && prev.(!i) = comb.(!j) then begin
        incr i;
        incr j
      end
      else if !j >= k || (!i < k && prev.(!i) < comb.(!j)) then begin
        emit true prev.(!i);
        incr i
      end
      else begin
        emit false comb.(!j);
        incr j
      end
    done;
    if !nops = 2 then fused_record op_sub.(0) op_row.(0) op_row.(1)
    else begin
      for idx = 0 to !nops - 1 do
        let row = op_row.(idx) in
        if op_sub.(idx) then
          for o = 0 to no - 1 do
            Array.unsafe_set cur o
              (Array.unsafe_get cur o -. Array.unsafe_get row o)
          done
        else
          for o = 0 to no - 1 do
            Array.unsafe_set cur o
              (Array.unsafe_get cur o +. Array.unsafe_get row o)
          done
      done;
      record ()
    end
  done;
  win_counts

let run ?k ?(max_trials = max_int) (m : float array array) =
  let nb = Array.length m in
  if nb = 0 then invalid_arg "Subset.run: empty matrix";
  let no = Array.length m.(0) in
  let k = match k with Some k -> k | None -> (nb + 1) / 2 in
  if k <= 0 || k > nb then invalid_arg "Subset.run: bad subset size";
  let total = min (choose nb k) max_trials in
  let pool = Par.Pool.get () in
  (* The chunk size is part of the reproducibility contract (each chunk
     re-sums its first combination, so resizing it moves float
     accumulation boundaries); scheduling coarseness is not. *)
  let win_counts =
    Par.Pool.reduce pool ~n:total ~chunk:chunk_trials
      ~map:(fun lo hi -> walk_range m ~nb ~no ~k lo (hi - lo))
      ~merge:(fun acc part ->
        Array.iteri (fun o c -> acc.(o) <- acc.(o) + c) part;
        acc)
      ~init:(Array.make no 0) ()
  in
  let overall =
    Array.init no (fun o ->
        let s = ref 0. in
        for b = 0 to nb - 1 do
          s := !s +. m.(b).(o)
        done;
        !s /. float_of_int nb)
  in
  let wins =
    Array.to_list win_counts
    |> List.mapi (fun o c -> (o, c))
    |> List.filter (fun (_, c) -> c > 0)
    |> List.sort (fun (o1, c1) (o2, c2) ->
           let c = compare c2 c1 in
           if c <> 0 then c else compare o1 o2)
    |> Array.of_list
  in
  { trials = total; distinct_orders = Array.length wins; wins; overall }

let cumulative_share r =
  let total = float_of_int r.trials in
  let acc = ref 0. in
  Array.map
    (fun (_, c) ->
      acc := !acc +. float_of_int c;
      !acc /. total)
    r.wins
