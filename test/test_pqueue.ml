(* Unit and property tests for the event queue. *)

let test_empty () =
  let q = Amac.Pqueue.create () in
  Alcotest.(check bool) "is_empty" true (Amac.Pqueue.is_empty q);
  Alcotest.(check int) "length" 0 (Amac.Pqueue.length q);
  Alcotest.check_raises "pop raises" Not_found (fun () ->
      ignore (Amac.Pqueue.pop q))

let test_ordering () =
  let q = Amac.Pqueue.create () in
  List.iter
    (fun key -> Amac.Pqueue.add q ~key (string_of_int key))
    [ 5; 1; 9; 3; 7; 2; 8 ];
  let popped = List.init 7 (fun _ -> fst (Amac.Pqueue.pop q)) in
  Alcotest.(check (list int)) "sorted" [ 1; 2; 3; 5; 7; 8; 9 ] popped

let test_fifo_ties () =
  let q = Amac.Pqueue.create () in
  List.iter (fun v -> Amac.Pqueue.add q ~key:4 v) [ "a"; "b"; "c" ];
  Amac.Pqueue.add q ~key:1 "first";
  let values = List.init 4 (fun _ -> snd (Amac.Pqueue.pop q)) in
  Alcotest.(check (list string))
    "insertion order within a key"
    [ "first"; "a"; "b"; "c" ]
    values

let test_peek () =
  let q = Amac.Pqueue.create () in
  Amac.Pqueue.add q ~key:3 "x";
  Amac.Pqueue.add q ~key:1 "y";
  Alcotest.(check (pair int string)) "peek min" (1, "y") (Amac.Pqueue.peek q);
  Alcotest.(check int) "peek does not remove" 2 (Amac.Pqueue.length q)

let test_of_list () =
  let q = Amac.Pqueue.of_list [ (4, "a"); (1, "min"); (4, "b"); (2, "mid") ] in
  Alcotest.(check int) "length" 4 (Amac.Pqueue.length q);
  let popped = List.init 4 (fun _ -> Amac.Pqueue.pop q) in
  (* min-key order, list order breaking the key-4 tie *)
  Alcotest.(check bool) "sorted with FIFO ties" true
    (popped = [ (1, "min"); (2, "mid"); (4, "a"); (4, "b") ]);
  Alcotest.(check bool) "empty list" true
    (Amac.Pqueue.is_empty (Amac.Pqueue.of_list []))

let test_clear () =
  let q = Amac.Pqueue.create () in
  Amac.Pqueue.add q ~key:1 "x";
  Amac.Pqueue.clear q;
  Alcotest.(check bool) "cleared" true (Amac.Pqueue.is_empty q)

let test_interleaved () =
  let q = Amac.Pqueue.create () in
  Amac.Pqueue.add q ~key:10 "a";
  Amac.Pqueue.add q ~key:5 "b";
  Alcotest.(check string) "pop 5" "b" (snd (Amac.Pqueue.pop q));
  Amac.Pqueue.add q ~key:1 "c";
  Amac.Pqueue.add q ~key:20 "d";
  Alcotest.(check string) "pop 1" "c" (snd (Amac.Pqueue.pop q));
  Alcotest.(check string) "pop 10" "a" (snd (Amac.Pqueue.pop q));
  Alcotest.(check string) "pop 20" "d" (snd (Amac.Pqueue.pop q))

let test_to_list () =
  let q = Amac.Pqueue.create () in
  List.iter (fun key -> Amac.Pqueue.add q ~key key) [ 3; 1; 2 ];
  let contents = List.sort compare (Amac.Pqueue.to_list q) in
  Alcotest.(check (list (pair int int)))
    "contents" [ (1, 1); (2, 2); (3, 3) ] contents

(* Property: popping everything yields keys in non-decreasing order, and the
   multiset of keys is preserved. *)
let prop_heap_sort =
  QCheck.Test.make ~name:"pqueue pops sorted, multiset preserved" ~count:300
    QCheck.(list (int_range 0 1000))
    (fun keys ->
      let q = Amac.Pqueue.create () in
      List.iter (fun key -> Amac.Pqueue.add q ~key key) keys;
      let popped = List.init (List.length keys) (fun _ -> fst (Amac.Pqueue.pop q)) in
      popped = List.sort Int.compare keys)

(* Property: with all-equal keys the queue is exactly FIFO. *)
let prop_fifo =
  QCheck.Test.make ~name:"pqueue is FIFO at equal keys" ~count:100
    QCheck.(list small_int)
    (fun values ->
      let q = Amac.Pqueue.create () in
      List.iter (fun v -> Amac.Pqueue.add q ~key:0 v) values;
      let popped = List.init (List.length values) (fun _ -> snd (Amac.Pqueue.pop q)) in
      popped = values)

(* Model test: random interleavings of every operation, checked step by
   step against a reference list sorted by (key, insertion sequence).
   Values are unique ids, so a misplaced entry cannot hide behind an equal
   key; [ensure_capacity]'s dummy is -1 and must never come back. *)
type op =
  | Add of int
  | Pop
  | Pop_value
  | Top_key
  | Top_value
  | Peek
  | Clear
  | Ensure_capacity of int
  | Of_list of int list

let show_op = function
  | Add k -> Printf.sprintf "Add %d" k
  | Pop -> "Pop"
  | Pop_value -> "Pop_value"
  | Top_key -> "Top_key"
  | Top_value -> "Top_value"
  | Peek -> "Peek"
  | Clear -> "Clear"
  | Ensure_capacity n -> Printf.sprintf "Ensure_capacity %d" n
  | Of_list ks ->
      Printf.sprintf "Of_list [%s]" (String.concat ";" (List.map string_of_int ks))

let key_gen =
  QCheck.Gen.(
    frequency
      [
        (6, int_range (-4) 4);
        (2, int_range (-1000) 1000);
        (1, return max_int);
        (1, return min_int);
      ])

let op_gen =
  QCheck.Gen.(
    frequency
      [
        (8, map (fun k -> Add k) key_gen);
        (3, return Pop);
        (3, return Pop_value);
        (2, return Top_key);
        (2, return Top_value);
        (1, return Peek);
        (1, return Clear);
        (1, map (fun n -> Ensure_capacity n) (int_range 0 64));
        (1, map (fun ks -> Of_list ks) (list_size (int_range 0 12) key_gen));
      ])

(* The reference: (key, seq, value) kept sorted by (key, seq). *)
let model_insert model ((k, s, _) as e) =
  let rec go = function
    | [] -> [ e ]
    | ((k', s', _) as x) :: rest ->
        if k < k' || (k = k' && s < s') then e :: x :: rest else x :: go rest
  in
  go model

let run_model ops =
  let q = ref (Amac.Pqueue.create ()) in
  let model = ref [] and seq = ref 0 and next_value = ref 0 in
  let fresh () =
    let v = !next_value in
    incr next_value;
    v
  in
  let add_model k v =
    model := model_insert !model (k, !seq, v);
    incr seq
  in
  let head () = match !model with [] -> None | (k, _, v) :: _ -> Some (k, v) in
  let drop_head () = match !model with [] -> () | _ :: rest -> model := rest in
  let attempt f = try Some (f ()) with Not_found -> None in
  let step op =
    let result_ok =
      match op with
      | Add k ->
          let v = fresh () in
          Amac.Pqueue.add !q ~key:k v;
          add_model k v;
          true
      | Pop ->
          let e = head () in
          drop_head ();
          e = attempt (fun () -> Amac.Pqueue.pop !q)
      | Pop_value ->
          let e = Option.map snd (head ()) in
          drop_head ();
          e = attempt (fun () -> Amac.Pqueue.pop_value !q)
      | Top_key ->
          Option.map fst (head ()) = attempt (fun () -> Amac.Pqueue.top_key !q)
      | Top_value ->
          Option.map snd (head ()) = attempt (fun () -> Amac.Pqueue.top_value !q)
      | Peek -> head () = attempt (fun () -> Amac.Pqueue.peek !q)
      | Clear ->
          Amac.Pqueue.clear !q;
          model := [];
          true
      | Ensure_capacity n ->
          Amac.Pqueue.ensure_capacity !q n ~dummy:(-1);
          true
      | Of_list ks ->
          let entries = List.map (fun k -> (k, fresh ())) ks in
          q := Amac.Pqueue.of_list entries;
          model := [];
          List.iter (fun (k, v) -> add_model k v) entries;
          true
    in
    let contents =
      List.sort compare (List.map (fun (k, _, v) -> (k, v)) !model)
    in
    result_ok
    && Amac.Pqueue.length !q = List.length !model
    && Amac.Pqueue.is_empty !q = (!model = [])
    && List.sort compare (Amac.Pqueue.to_list !q) = contents
  in
  List.for_all step ops
  &&
  (* Drain what is left: the whole remaining order must match. *)
  List.for_all
    (fun (k, _, v) -> Amac.Pqueue.pop !q = (k, v))
    !model
  && Amac.Pqueue.is_empty !q

let prop_model =
  QCheck.Test.make ~name:"pqueue matches a sorted (key, seq) model"
    ~count:500
    QCheck.(
      make
        ~print:(fun ops -> String.concat "; " (List.map show_op ops))
        ~shrink:Shrink.list
        Gen.(list_size (int_range 0 200) op_gen))
    run_model

let () =
  Alcotest.run "pqueue"
    [
      ( "unit",
        [
          Alcotest.test_case "empty queue" `Quick test_empty;
          Alcotest.test_case "ordering" `Quick test_ordering;
          Alcotest.test_case "fifo ties" `Quick test_fifo_ties;
          Alcotest.test_case "peek" `Quick test_peek;
          Alcotest.test_case "of_list" `Quick test_of_list;
          Alcotest.test_case "clear" `Quick test_clear;
          Alcotest.test_case "interleaved" `Quick test_interleaved;
          Alcotest.test_case "to_list" `Quick test_to_list;
        ] );
      ( "property",
        [
          QCheck_alcotest.to_alcotest prop_heap_sort;
          QCheck_alcotest.to_alcotest prop_fifo;
          QCheck_alcotest.to_alcotest prop_model;
        ] );
    ]
