(* Tests for the int-keyed exact-match table under the microflow
   cache, the flow table's exact index and the flow buffer's chains:
   random replace, remove, find and clear sequences against a Hashtbl
   model. *)

open Sdn_switch

(* Int_table's hash, restated so the test can choose keys that share a
   home slot near the end of the slot array: their probe runs wrap
   past the last slot, and removing one shifts the others back across
   the wrap. If the two hashes drift apart the keys stop colliding and
   the test loses that reach, not its verdicts. *)
let hash (k : int array) =
  let h = Array.fold_left (fun h w -> (h lxor w) * 0x2545F4914F6CDD1D) 0 k in
  let h = (h lxor (h lsr 29)) * 0x1B873593 in
  h lxor (h lsr 32)

let words = 3

(* [n] keys whose home slot in a table of [slots] slots is [home], all
   led by [tag], so two calls never pick the same key. *)
let homed ~tag ~slots ~home n =
  let rec go i acc =
    if List.length acc = n then List.rev acc
    else
      let k = [| tag; i; 0x0A000002_0009 |] in
      go (i + 1) (if hash k land (slots - 1) = home then k :: acc else acc)
  in
  go 0 []

(* Colliding keys at the end of the 16-, 32- and 64-slot arrays the
   table passes through, plus a few that fall anywhere. *)
let pool =
  Array.of_list
    (List.concat
       [
         homed ~tag:1 ~slots:16 ~home:15 4;
         homed ~tag:2 ~slots:16 ~home:14 2;
         homed ~tag:3 ~slots:32 ~home:31 3;
         homed ~tag:4 ~slots:64 ~home:63 3;
         List.init 10 (fun i -> [| 5; i * 7919; i |]);
       ])

type op = Replace of int * int | Remove of int | Clear

let pp_op = function
  | Replace (k, v) -> Printf.sprintf "replace #%d %d" k v
  | Remove k -> Printf.sprintf "remove #%d" k
  | Clear -> "clear"

let prop_model =
  let key = QCheck.Gen.int_range 0 (Array.length pool - 1) in
  let op =
    QCheck.Gen.(
      frequency
        [
          (5, map2 (fun k v -> Replace (k, v)) key (int_range 0 9));
          (4, map (fun k -> Remove k) key);
          (1, return Clear);
        ])
  in
  QCheck.Test.make ~name:"int table agrees with a Hashtbl model" ~count:500
    (QCheck.make
       ~print:(fun ops -> String.concat "; " (List.map pp_op ops))
       QCheck.Gen.(list_size (int_range 1 80) op))
    (fun ops ->
      let table = Int_table.create ~words (-1) in
      let model = Hashtbl.create 16 in
      (* A fresh copy of each key, so a match is by the words, not by
         the array. *)
      let key k = Array.copy pool.(k) in
      List.for_all
        (fun op ->
          (match op with
          | Replace (k, v) ->
              Int_table.replace table (key k) v;
              Hashtbl.replace model k v
          | Remove k ->
              Int_table.remove table (key k);
              Hashtbl.remove model k
          | Clear ->
              Int_table.clear table;
              Hashtbl.reset model);
          Int_table.length table = Hashtbl.length model
          && Array.for_all Fun.id
               (Array.mapi
                  (fun k _ ->
                    Int_table.find table (key k)
                    = Option.value (Hashtbl.find_opt model k) ~default:(-1))
                  pool))
        ops)

(* Four keys homed at the last of 16 slots fill slots 15, 0, 1 and 2;
   removing the first must shift the other three back across the end,
   and each removal after must leave the rest findable. *)
let test_wrap_and_shift () =
  let keys = Array.of_list (homed ~tag:1 ~slots:16 ~home:15 4) in
  let table = Int_table.create ~words (-1) in
  Array.iteri (fun i k -> Int_table.replace table k i) keys;
  Array.iteri
    (fun removed k ->
      Int_table.remove table k;
      Alcotest.(check int) "removed" (-1) (Int_table.find table k);
      Array.iteri
        (fun i k ->
          if i > removed then
            Alcotest.(check int) "still found" i (Int_table.find table k))
        keys)
    keys;
  Alcotest.(check int) "empty" 0 (Int_table.length table)

let suite =
  [
    Alcotest.test_case "probe runs wrap and shift back" `Quick
      test_wrap_and_shift;
    QCheck_alcotest.to_alcotest prop_model;
  ]
