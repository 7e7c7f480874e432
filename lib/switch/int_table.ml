(* Linear probing over one int array. Slot [i] holds [1 + words] ints
   from [i * stride]: the generation that wrote it, then the key; its
   value sits at [values.(i)]. A slot is live only if its generation is
   the table's (fresh slots read 0), so [clear] bumps the generation
   and writes no slot. [remove] kills its slot and moves each later
   entry of the probe run that may sit there back over the hole, so a
   probe can still stop at the key or at the first dead slot. The load
   factor stays at most one half, so every run ends. *)

type 'v t = {
  words : int;
  stride : int;
  absent : 'v;
  mutable slots : int array;  (* empty until the first [replace] *)
  mutable values : 'v array;
  mutable generation : int;
  mutable length : int;
}

let create ~words absent =
  let stride = words + 1 in
  { words; stride; absent; slots = [||]; values = [||]; generation = 1; length = 0 }

(* The hash of the [n] words of [a] from [off]. *)
let hash (a : int array) off n =
  let h = ref 0 in
  for j = off to off + n - 1 do
    h := (!h lxor a.(j)) * 0x2545F4914F6CDD1D
  done;
  let h = (!h lxor (!h lsr 29)) * 0x1B873593 in
  h lxor (h lsr 32)

(* The slot holding the key at [a.(off)], or the dead slot where it
   would go: one loop, so a probe makes no call. *)
let locate t (a : int array) off =
  let slots = t.slots and gen = t.generation and n = t.words in
  let mask = Array.length t.values - 1 in
  let i = ref (hash a off n land mask) and at = ref (-1) in
  while !at < 0 do
    let base = !i * t.stride in
    if slots.(base) <> gen then at := !i
    else begin
      let j = ref 0 in
      while !j < n && slots.(base + 1 + !j) = a.(off + !j) do
        incr j
      done;
      if !j = n then at := !i else i := (!i + 1) land mask
    end
  done;
  !at

let live t i = t.slots.(i * t.stride) = t.generation

let find t key =
  if t.length = 0 then t.absent
  else
    let i = locate t key 0 in
    if live t i then t.values.(i) else t.absent

(* Make slot [i] live with the key at [a.(off)] and bind it to [v]. *)
let write t i (a : int array) off v =
  let base = i * t.stride in
  t.slots.(base) <- t.generation;
  for j = 0 to t.words - 1 do
    t.slots.(base + 1 + j) <- a.(off + j)
  done;
  t.values.(i) <- v

(* Double the slot count, moving the live slots. *)
let grow t =
  let old_slots = t.slots and old_values = t.values in
  let n = Int.max 16 (2 * Array.length old_values) in
  t.slots <- Array.make (n * t.stride) 0;
  t.values <- Array.make n t.absent;
  Array.iteri
    (fun i v ->
      let base = i * t.stride in
      if old_slots.(base) = t.generation then
        write t (locate t old_slots (base + 1)) old_slots (base + 1) v)
    old_values

let replace t key v =
  if 2 * (t.length + 1) > Array.length t.values then grow t;
  let i = locate t key 0 in
  if live t i then t.values.(i) <- v
  else begin
    write t i key 0 v;
    t.length <- t.length + 1
  end

(* Slot [hole] is dead and [j] follows it in a probe run. An entry at
   [j] whose home slot is not cyclically within (hole, j] moves back
   into the hole, leaving its own slot as the next hole. *)
let rec shift_back t mask hole j =
  let base = j * t.stride in
  if t.slots.(base) <> t.generation then t.values.(hole) <- t.absent
  else if
    (j - hole) land mask <= (j - hash t.slots (base + 1) t.words) land mask
  then begin
    write t hole t.slots (base + 1) t.values.(j);
    t.slots.(base) <- 0;
    shift_back t mask j ((j + 1) land mask)
  end
  else shift_back t mask hole ((j + 1) land mask)

let remove t key =
  if t.length > 0 then begin
    let i = locate t key 0 in
    if live t i then begin
      t.slots.(i * t.stride) <- 0;
      t.length <- t.length - 1;
      let mask = Array.length t.values - 1 in
      shift_back t mask i ((i + 1) land mask)
    end
  end

let clear t =
  t.generation <- t.generation + 1;
  t.length <- 0

let length t = t.length
