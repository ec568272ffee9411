(* The Sec 3.1 (FLP-style) machinery: valency classification, persistence of
   bivalence, and what one crash does to two-phase consensus. *)

module B = Lowerbound.Bivalence

let explorer ?(n = 3) inputs =
  B.create Consensus.Two_phase.algorithm
    ~topology:(Amac.Topology.clique n)
    ~inputs

let test_unanimous_univalent () =
  (* Validity forces unanimity to be univalent (FLP Lemma 2's base case). *)
  Alcotest.(check bool) "all-0 univalent(0)" true
    (B.initial_verdict (explorer [| 0; 0; 0 |]) = B.Univalent 0);
  Alcotest.(check bool) "all-1 univalent(1)" true
    (B.initial_verdict (explorer [| 1; 1; 1 |]) = B.Univalent 1)

let test_mixed_bivalent () =
  (* A bivalent initial configuration exists — the FLP Lemma 2 analogue. *)
  Alcotest.(check bool) "0;1;1 bivalent" true
    (B.initial_verdict (explorer [| 0; 1; 1 |]) = B.Bivalent);
  Alcotest.(check bool) "0;0;1 bivalent" true
    (B.initial_verdict (explorer [| 0; 0; 1 |]) = B.Bivalent)

let test_two_node_bivalent () =
  Alcotest.(check bool) "n=2 mixed bivalent" true
    (B.initial_verdict (explorer ~n:2 [| 0; 1 |]) = B.Bivalent)

let test_explore_stats () =
  let stats = B.explore (explorer [| 0; 1; 1 |]) ~max_depth:6 in
  Alcotest.(check int) "one initial config" 1 stats.configs_by_depth.(0);
  Alcotest.(check int) "initial is bivalent" 1 stats.bivalent_by_depth.(0);
  Alcotest.(check bool) "bivalence persists at least one step" true
    (stats.deepest_bivalent >= 1);
  Alcotest.(check bool) "exploration expands" true (stats.total_configs > 10)

let test_bivalence_dies_without_crashes () =
  (* Two-phase terminates without crashes, so along crash-free valid-step
     executions bivalence must die out well before termination depth. *)
  let stats = B.explore (explorer [| 0; 1; 1 |]) ~max_depth:20 in
  Alcotest.(check bool) "bivalence bounded" true
    (stats.deepest_bivalent < 10)

let test_lemma_3_1_witness () =
  (* Lemma 3.1 says: for a 1-crash-TOLERANT algorithm, every node has an
     extension after which its own valid step keeps bivalence. Two-phase is
     not 1-crash tolerant, so the lemma need not hold at every node — and
     indeed it does not: that escape hatch is exactly how the algorithm
     evades the Thm 3.2 impossibility. We check both sides: some node has a
     witness (bivalence genuinely extends), and some node has none within
     the search depth (the lemma fails for this algorithm, as it must). *)
  let t = explorer [| 0; 1; 1 |] in
  let witness node = B.check_lemma_3_1 t ~node ~search_depth:8 <> None in
  let results = List.map witness [ 0; 1; 2 ] in
  Alcotest.(check bool) "some node has a witness" true
    (List.mem true results);
  Alcotest.(check bool) "some node has no witness (not crash-tolerant)" true
    (List.mem false results)

let test_one_crash_kills_termination () =
  (* Thm 3.2 in action: a single crash yields an execution where a live
     node waits forever (a blocked undecided configuration). *)
  let t = explorer [| 0; 1; 1 |] in
  match B.find_termination_violation t ~max_crashes:1 ~max_depth:25 () with
  | Some schedule ->
      Alcotest.(check bool) "schedule contains a crash" true
        (List.exists (function B.Crash _ -> true | _ -> false) schedule)
  | None -> Alcotest.fail "expected a termination violation with 1 crash"

let test_no_termination_violation_without_crashes () =
  let t = explorer [| 0; 1; 1 |] in
  Alcotest.(check bool) "crash-free executions all decide" true
    (B.find_termination_violation t ~max_crashes:0 ~max_depth:25 () = None)

let test_agreement_survives_one_crash () =
  (* Safety is crash-tolerant even though liveness is not: exhaustively, no
     1-crash schedule makes two-phase disagree. *)
  List.iter
    (fun inputs ->
      let t = explorer inputs in
      match
        B.find_agreement_violation t ~max_crashes:1 ~max_depth:22
          ~max_configs:150_000 ()
      with
      | None -> ()
      | Some schedule ->
          Alcotest.failf "agreement violation: %s"
            (String.concat " "
               (List.map (Format.asprintf "%a" B.pp_step) schedule)))
    [ [| 0; 1; 1 |]; [| 0; 0; 1 |]; [| 1; 0; 1 |] ]

let test_literal_two_phase_disagrees_under_crash_free_steps () =
  (* The erratum also shows up here: the literal pseudocode of Algorithm 1
     admits a crash-FREE valid-step execution deciding both values on a
     2-clique... — valid steps alone may or may not realise the erratum
     interleaving; what must hold is that the CORRECTED algorithm never
     does. *)
  let t =
    B.create Consensus.Two_phase.algorithm
      ~topology:(Amac.Topology.clique 2)
      ~inputs:[| 0; 1 |]
  in
  Alcotest.(check bool) "corrected never disagrees (0 crashes)" true
    (B.find_agreement_violation t ~max_crashes:0 ~max_depth:30 () = None)

(* A heartbeat algorithm whose valid-step graph has cycles, on the 2-clique:
   node 0 re-broadcasts on every ack, forever; node 1 broadcasts once, flips
   a bit on every heartbeat delivered to it, and decides that bit on its own
   ack. Until node 1 decides, the scheduler can still slip one more
   heartbeat in before its ack, so every undecided configuration is
   bivalent — including the ones first reached while an ancestor is still
   being classified. *)
type heartbeat_msg = Heartbeat | Hello

let heartbeat : (int ref, heartbeat_msg) Amac.Algorithm.t =
  let pacer (ctx : Amac.Algorithm.ctx) = ctx.id = Amac.Node_id.Id 0 in
  {
    name = "heartbeat";
    init =
      (fun ctx ->
        (ref ctx.input, [ Broadcast (if pacer ctx then Heartbeat else Hello) ]));
    on_receive =
      (fun _ bit -> function Heartbeat -> bit := 1 - !bit; [] | Hello -> []);
    on_ack =
      (fun ctx bit -> if pacer ctx then [ Broadcast Heartbeat ] else [ Decide !bit ]);
    msg_ids = (fun _ -> 0);
    hooks = None;
  }

let test_cyclic_valency () =
  let t =
    B.create heartbeat ~topology:(Amac.Topology.clique 2) ~inputs:[| 0; 1 |]
  in
  let stats = B.explore t ~max_depth:50 in
  Alcotest.(check int) "sixteen configurations" 16 stats.total_configs;
  Alcotest.(check int) "every undecided configuration is bivalent" 8
    (Array.fold_left ( + ) 0 stats.bivalent_by_depth);
  Alcotest.(check bool) "initial bivalent" true (B.initial_verdict t = B.Bivalent)

let test_pp_step () =
  Alcotest.(check string) "deliver" "deliver(0->2)"
    (Format.asprintf "%a" B.pp_step (B.Deliver { sender = 0; receiver = 2 }));
  Alcotest.(check string) "ack" "ack(1)" (Format.asprintf "%a" B.pp_step (B.Ack 1));
  Alcotest.(check string) "crash" "crash(2)"
    (Format.asprintf "%a" B.pp_step (B.Crash 2))

let test_create_validation () =
  Alcotest.check_raises "input mismatch"
    (Invalid_argument "Bivalence.create: inputs length mismatches topology")
    (fun () -> ignore (explorer [| 0; 1 |]))

(* Property: initial verdict of a unanimous vector is always univalent of
   that value, across n. *)
let prop_unanimity_univalent =
  (* n capped at 3: valency is an exhaustive search and the valid-step
     space grows super-exponentially in n. *)
  QCheck.Test.make ~name:"unanimous inputs are univalent" ~count:8
    QCheck.(pair (int_range 2 3) bool)
    (fun (n, bit) ->
      let v = if bit then 1 else 0 in
      B.initial_verdict (explorer ~n (Array.make n v)) = B.Univalent v)

let () =
  Alcotest.run "bivalence"
    [
      ( "valency",
        [
          Alcotest.test_case "unanimous univalent" `Quick
            test_unanimous_univalent;
          Alcotest.test_case "mixed bivalent" `Quick test_mixed_bivalent;
          Alcotest.test_case "two nodes" `Quick test_two_node_bivalent;
          Alcotest.test_case "explore stats" `Quick test_explore_stats;
          Alcotest.test_case "bivalence dies without crashes" `Quick
            test_bivalence_dies_without_crashes;
          Alcotest.test_case "lemma 3.1 witnesses" `Quick
            test_lemma_3_1_witness;
          Alcotest.test_case "cyclic valency" `Quick test_cyclic_valency;
        ] );
      ( "crashes",
        [
          Alcotest.test_case "one crash kills termination" `Quick
            test_one_crash_kills_termination;
          Alcotest.test_case "no violation without crashes" `Quick
            test_no_termination_violation_without_crashes;
          Alcotest.test_case "agreement survives one crash" `Slow
            test_agreement_survives_one_crash;
          Alcotest.test_case "corrected never disagrees" `Quick
            test_literal_two_phase_disagrees_under_crash_free_steps;
        ] );
      ( "misc",
        [
          Alcotest.test_case "pp_step" `Quick test_pp_step;
          Alcotest.test_case "create validation" `Quick test_create_validation;
          QCheck_alcotest.to_alcotest prop_unanimity_univalent;
        ] );
    ]
