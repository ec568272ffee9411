(* Proposal numbers and response aggregation — the local step of the
   Lemma 4.2 conservation argument. *)

module P = Consensus.Paxos_types

let pno tag proposer = { P.tag; proposer }

let test_pno_order () =
  Alcotest.(check bool) "tag dominates" true (P.pno_lt (pno 1 9) (pno 2 0));
  Alcotest.(check bool) "id breaks ties" true (P.pno_lt (pno 3 1) (pno 3 2));
  Alcotest.(check bool) "equal" true (P.compare_pno (pno 3 1) (pno 3 1) = 0);
  Alcotest.(check bool) "le reflexive" true (P.pno_le (pno 3 1) (pno 3 1));
  Alcotest.(check bool) "not lt self" false (P.pno_lt (pno 3 1) (pno 3 1))

let test_proposition_order () =
  let open P in
  Alcotest.(check bool) "prepare < propose same pno" true
    (compare_proposition (pno 2 1, Prepare_round) (pno 2 1, Propose_round) < 0);
  Alcotest.(check bool) "higher pno wins over round" true
    (compare_proposition (pno 2 1, Propose_round) (pno 3 0, Prepare_round) < 0)

let test_max_prior () =
  let a = Some { P.pno = pno 2 1; value = 0 } in
  let b = Some { P.pno = pno 3 0; value = 1 } in
  Alcotest.(check bool) "picks higher pno" true (P.max_prior a b = b);
  Alcotest.(check bool) "commutes" true (P.max_prior b a = b);
  Alcotest.(check bool) "none identity" true (P.max_prior None a = a);
  Alcotest.(check bool) "both none" true (P.max_prior None None = None)

let test_max_committed () =
  let a = Some (pno 1 5) and b = Some (pno 2 0) in
  Alcotest.(check bool) "max" true (P.max_committed a b = b);
  Alcotest.(check bool) "none identity" true (P.max_committed b None = b)

let response ?(dest = 7) ?(target = 9) ?(p = pno 2 9) ?(round = P.Prepare_round)
    ?(positive = true) ?(count = 1) ?prior ?committed () =
  {
    P.dest;
    target;
    pno = p;
    round;
    positive;
    count;
    best_prior = prior;
    committed;
  }

let test_mergeable () =
  let a = response () and b = response ~count:3 () in
  Alcotest.(check bool) "same key merges" true (P.mergeable a b);
  Alcotest.(check bool) "different dest" false
    (P.mergeable a (response ~dest:8 ()));
  Alcotest.(check bool) "different polarity" false
    (P.mergeable a (response ~positive:false ()));
  Alcotest.(check bool) "different round" false
    (P.mergeable a (response ~round:P.Propose_round ()));
  Alcotest.(check bool) "different pno" false
    (P.mergeable a (response ~p:(pno 3 9) ()))

let test_merge_counts_and_priors () =
  let a = response ~count:2 ~prior:{ P.pno = pno 1 1; value = 0 } () in
  let b = response ~count:3 ~prior:{ P.pno = pno 2 0; value = 1 } () in
  let merged = P.merge a b in
  Alcotest.(check int) "counts add" 5 merged.P.count;
  Alcotest.(check bool) "keeps higher prior" true
    (merged.P.best_prior = Some { P.pno = pno 2 0; value = 1 })

let test_merge_rejects_unmergeable () =
  Alcotest.check_raises "unmergeable"
    (Invalid_argument "Paxos_types.merge: not mergeable") (fun () ->
      ignore (P.merge (response ()) (response ~dest:8 ())))

let test_aggregate_groups () =
  let responses =
    [
      response ~count:1 ();
      response ~count:2 ~positive:false ();
      response ~count:3 ();
      response ~count:4 ~round:P.Propose_round ();
    ]
  in
  let aggregated = P.aggregate responses in
  Alcotest.(check int) "three classes" 3 (List.length aggregated);
  let total rs = List.fold_left (fun acc r -> acc + r.P.count) 0 rs in
  Alcotest.(check int) "count preserved" (total responses) (total aggregated)

(* Conservation: however a batch is aggregated, per-proposition counts are
   exactly preserved — the base fact the Lemma 4.2 induction rests on. *)
let gen_response =
  QCheck.Gen.(
    let* dest = int_range 0 3 in
    let* positive = bool in
    let* round = oneofl [ P.Prepare_round; P.Propose_round ] in
    let* tag = int_range 0 2 in
    let* count = int_range 1 5 in
    return
      (response ~dest ~p:(pno tag 9) ~round ~positive ~count ()))

let prop_aggregate_conserves_counts =
  QCheck.Test.make ~name:"aggregate conserves per-class counts" ~count:300
    (QCheck.make QCheck.Gen.(list_size (int_range 0 25) gen_response))
    (fun responses ->
      let aggregated = P.aggregate responses in
      let key r = (r.P.dest, r.P.pno, r.P.round, r.P.positive) in
      let sum rs k =
        List.fold_left
          (fun acc r -> if key r = k then acc + r.P.count else acc)
          0 rs
      in
      let keys = List.sort_uniq compare (List.map key responses) in
      List.for_all (fun k -> sum responses k = sum aggregated k) keys
      (* and each class appears at most once after aggregation *)
      && List.length aggregated
         = List.length (List.sort_uniq compare (List.map key aggregated)))

let prop_merge_associative_on_counts =
  QCheck.Test.make ~name:"merge count is associative" ~count:100
    QCheck.(triple (int_range 1 10) (int_range 1 10) (int_range 1 10))
    (fun (a, b, c) ->
      let r n = response ~count:n () in
      let left = P.merge (P.merge (r a) (r b)) (r c) in
      let right = P.merge (r a) (P.merge (r b) (r c)) in
      left.P.count = right.P.count && left.P.count = a + b + c)

let test_pp_smoke () =
  (* Rendering shouldn't raise and should mention the key fields. *)
  let s = P.pp_response (response ~prior:{ P.pno = pno 1 2; value = 1 } ()) in
  Alcotest.(check bool) "mentions count" true
    (String.length s > 0 && String.contains s 'x');
  let s = P.pp_proposer_msg (P.Propose { pno = pno 4 2; value = 1 }) in
  Alcotest.(check bool) "mentions propose" true (String.length s > 6)

let test_id_accounting () =
  Alcotest.(check int) "prepare ids" 1 (P.proposer_msg_ids (P.Prepare (pno 1 2)));
  Alcotest.(check int) "bare response" 3 (P.response_ids (response ()));
  Alcotest.(check int) "with prior and committed" 5
    (P.response_ids
       (response ~prior:{ P.pno = pno 1 2; value = 0 } ~committed:(pno 2 2) ()))

(* [by_rank] is a stable sort by rank that hands an already-ordered list
   back untouched. Elements are (rank, tag) pairs, so stability shows. *)
let prop_by_rank_is_stable_sort =
  QCheck.Test.make ~name:"by_rank = stable sort, identity when ordered"
    ~count:300
    QCheck.(list_of_size Gen.(int_range 0 8) (pair (int_range 0 5) small_nat))
    (fun components ->
      let rank (r, _) = r in
      let ordered = P.by_rank rank components in
      let expected =
        List.stable_sort (fun a b -> Int.compare (rank a) (rank b)) components
      in
      ordered = expected && (ordered <> components || ordered == components))

let () =
  Alcotest.run "paxos_types"
    [
      ( "ordering",
        [
          Alcotest.test_case "pno order" `Quick test_pno_order;
          Alcotest.test_case "proposition order" `Quick test_proposition_order;
          Alcotest.test_case "max_prior" `Quick test_max_prior;
          Alcotest.test_case "max_committed" `Quick test_max_committed;
        ] );
      ( "aggregation",
        [
          Alcotest.test_case "mergeable" `Quick test_mergeable;
          Alcotest.test_case "merge" `Quick test_merge_counts_and_priors;
          Alcotest.test_case "merge rejects" `Quick
            test_merge_rejects_unmergeable;
          Alcotest.test_case "aggregate groups" `Quick test_aggregate_groups;
          QCheck_alcotest.to_alcotest prop_aggregate_conserves_counts;
          QCheck_alcotest.to_alcotest prop_merge_associative_on_counts;
        ] );
      ( "misc",
        [
          Alcotest.test_case "pp smoke" `Quick test_pp_smoke;
          Alcotest.test_case "id accounting" `Quick test_id_accounting;
          QCheck_alcotest.to_alcotest prop_by_rank_is_stable_sort;
        ] );
    ]
