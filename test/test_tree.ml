(* The tree-building service (Alg 4) against the list-and-Hashtbl code it
   replaced in wPAXOS and the replicated log, kept here as the reference
   model: random improve/push/dequeue sequences over sparse ids must agree
   with the model on every result, lookup, view and fingerprint. A pinned
   exploration of wPAXOS on the 3-clique then ties the fingerprint and
   clone of the whole algorithm state to the values the old code gave. *)

module Tree = Consensus.Tree
module F = Amac.Fingerprint
module Explore = Mcheck.Explore

(* The replaced code, verbatim up to naming: [improve] is on_search's
   UpdateQ, [push] the hardened tick's re-advertisement, [dequeue] the
   broadcast service's dequeue_tree. *)
module Model = struct
  type t = {
    dist : (int, int) Hashtbl.t;
    parent : (int, int) Hashtbl.t;
    mutable tree_q : (int * int) list;
  }

  let create ~me =
    let m =
      {
        dist = Hashtbl.create 16;
        parent = Hashtbl.create 16;
        tree_q = [ (me, 1) ];
      }
    in
    Hashtbl.replace m.dist me 0;
    Hashtbl.replace m.parent me me;
    m

  let improve m ~root ~hops ~sender =
    let current =
      Option.value ~default:max_int (Hashtbl.find_opt m.dist root)
    in
    if hops < current then begin
      Hashtbl.replace m.dist root hops;
      Hashtbl.replace m.parent root sender;
      m.tree_q <-
        List.filter (fun (r, _) -> r <> root) m.tree_q @ [ (root, hops + 1) ];
      true
    end
    else false

  let push m ~root =
    match Hashtbl.find_opt m.dist root with
    | Some d ->
        m.tree_q <-
          List.filter (fun (r, _) -> r <> root) m.tree_q @ [ (root, d + 1) ]
    | None -> ()

  let dequeue m ~prefer =
    match m.tree_q with
    | [] -> None
    | entries ->
        let chosen =
          match prefer with
          | Some omega -> (
              match List.find_opt (fun (root, _) -> root = omega) entries with
              | Some entry -> entry
              | None -> List.hd entries)
          | None -> List.hd entries
        in
        m.tree_q <- List.filter (fun e -> e <> chosen) m.tree_q;
        Some chosen

  let routes m =
    Hashtbl.fold
      (fun root d l -> (root, d, Hashtbl.find m.parent root) :: l)
      m.dist []
    |> List.sort compare

  let fp_int_tbl tbl acc =
    let entries = Hashtbl.fold (fun k v l -> (k, v) :: l) tbl [] in
    let entries = List.sort compare entries in
    F.list (fun (k, v) acc -> acc |> F.int k |> F.int v) entries acc

  let fingerprint m acc =
    acc |> fp_int_tbl m.dist |> fp_int_tbl m.parent
    |> F.list (fun (a, b) acc -> acc |> F.int a |> F.int b) m.tree_q
end

type op =
  | Improve of { root : int; hops : int; sender : int }
  | Push of int
  | Dequeue of int option

(* Sparse, non-dense ids: negatives, gaps, strides and huge values. *)
let ids = [| -7; 0; 3; 4; 64; 128; 1_000_003; 1 lsl 40; max_int |]

let pp_op = function
  | Improve { root; hops; sender } ->
      Printf.sprintf "improve(root=%d,hops=%d,sender=%d)" root hops sender
  | Push root -> Printf.sprintf "push(%d)" root
  | Dequeue None -> "dequeue"
  | Dequeue (Some r) -> Printf.sprintf "dequeue(prefer=%d)" r

let gen_op =
  let open QCheck.Gen in
  let id = oneofa ids in
  let hops = frequency [ (12, int_range 0 9); (1, return max_int) ] in
  frequency
    [
      ( 5,
        map3 (fun root hops sender -> Improve { root; hops; sender }) id hops id
      );
      (2, map (fun r -> Push r) id);
      (3, map (fun r -> Dequeue (Some r)) id);
      (2, return (Dequeue None));
    ]

let arb_run =
  QCheck.make
    ~print:(fun (me, ops) ->
      Printf.sprintf "me=%d: %s" me (String.concat "; " (List.map pp_op ops)))
    QCheck.Gen.(pair (oneofa ids) (list_size (int_range 0 60) gen_op))

let fp f = F.to_int (f F.empty)

let agrees t m =
  Array.for_all
    (fun id ->
      Tree.dist t id = Hashtbl.find_opt m.Model.dist id
      && Tree.parent t id = Hashtbl.find_opt m.Model.parent id)
    ids
  && Tree.routes t = Model.routes m
  && Tree.queue t = m.Model.tree_q
  && fp (Tree.fingerprint t) = fp (Model.fingerprint m)

let prop_matches_model =
  QCheck.Test.make ~name:"Tree = list-and-Hashtbl model" ~count:500 arb_run
    (fun (me, ops) ->
      let t = Tree.create ~me and m = Model.create ~me in
      agrees t m
      && List.for_all
           (fun op ->
             let same_result =
               match op with
               | Improve { root; hops; sender } ->
                   Tree.improve t ~root ~hops ~sender
                   = Model.improve m ~root ~hops ~sender
               | Push root ->
                   Tree.push t ~root;
                   Model.push m ~root;
                   true
               | Dequeue prefer ->
                   Tree.dequeue t ~prefer = Model.dequeue m ~prefer
             in
             same_result && agrees t m)
           ops)

let test_copy_isolated () =
  let t = Tree.create ~me:5 in
  List.iter
    (fun (root, hops, sender) -> ignore (Tree.improve t ~root ~hops ~sender))
    [ (9, 2, 1); (1_000_003, 4, 9); (-7, 1, 9); (9, 1, 3) ];
  let c = Tree.copy t in
  let routes = Tree.routes t and queue = Tree.queue t in
  let fingerprint = fp (Tree.fingerprint t) in
  Alcotest.(check int) "copy fingerprints equal" fingerprint
    (fp (Tree.fingerprint c));
  (* Mutate the original every way there is; the copy must not move. *)
  ignore (Tree.improve t ~root:9 ~hops:0 ~sender:7);
  ignore (Tree.improve t ~root:64 ~hops:3 ~sender:9);
  Tree.push t ~root:(-7);
  ignore (Tree.dequeue t ~prefer:(Some 1_000_003));
  ignore (Tree.dequeue t ~prefer:None);
  let triple = Alcotest.(list (triple int int int)) in
  let pairs = Alcotest.(list (pair int int)) in
  Alcotest.check triple "copy routes unchanged" routes (Tree.routes c);
  Alcotest.check pairs "copy queue unchanged" queue (Tree.queue c);
  Alcotest.(check int) "copy fingerprint unchanged" fingerprint
    (fp (Tree.fingerprint c));
  (* And the other way round. *)
  let routes = Tree.routes t and queue = Tree.queue t in
  ignore (Tree.improve c ~root:128 ~hops:1 ~sender:5);
  while Tree.dequeue c ~prefer:None <> None do () done;
  Alcotest.check triple "original routes unchanged" routes (Tree.routes t);
  Alcotest.check pairs "original queue unchanged" queue (Tree.queue t)

(* wPAXOS on the 3-clique under `Fast keying, at a depth that runs in well
   under a second. The counts and keys below were measured on the
   list-and-Hashtbl implementation; the keys change if any byte of the
   state's fingerprint encoding changes, and the counts change if a clone
   shares mutable routing state with its parent. *)
let test_wpaxos_exploration_pinned () =
  let config = { Explore.default with max_depth = 12; keying = `Fast } in
  let topology = Amac.Topology.clique 3 and inputs = [| 0; 1; 1 |] in
  let stats =
    Explore.explore config (Consensus.Wpaxos.make ()) ~topology ~inputs
  in
  Alcotest.(check int) "states" 31416 stats.Explore.states;
  Alcotest.(check int) "transitions" 47675 stats.Explore.transitions;
  Alcotest.(check int) "sleep skips" 29464 stats.Explore.sleep_skips;
  Alcotest.(check int) "no violations" 0
    (List.length stats.Explore.violations);
  let sys =
    Explore.system config (Consensus.Wpaxos.make ()) ~topology ~inputs
  in
  let rec walk state i acc =
    match Explore.enabled sys state with
    | [] -> List.rev acc
    | _ when i = 0 -> List.rev acc
    | steps ->
        let state =
          Explore.apply sys state (List.nth steps (i mod List.length steps))
        in
        walk state (i - 1) (Explore.key sys state :: acc)
  in
  let initial = Explore.initial sys in
  Alcotest.(check (list int)) "keys along a fixed schedule"
    [
      4288688432466763390; 3731760443652443449; 3304018402809901433;
      42574888545501560; 1303090170712804041; 802005610258519505;
      1737087805874278942; 1940494838568746369; 3350495002114227132;
      3495129430768709966; 787313290019660442; 3844814358205391979;
      4236445048563015193; 3423575342515312713; 642647014422270504;
      211791605544755427; 3303972027223349335; 3192360324918726265;
      2937984566659183610; 3477267453934440552; 1975102183406995140;
      2062369278656513599; 1298156767190594046; 2456521627263913125;
      3209985169888612696;
    ]
    (Explore.key sys initial :: walk initial 24 [])

let () =
  Alcotest.run "tree"
    [
      ( "model",
        [
          QCheck_alcotest.to_alcotest prop_matches_model;
          Alcotest.test_case "copy is isolated" `Quick test_copy_isolated;
        ] );
      ( "fingerprint",
        [
          Alcotest.test_case "wpaxos exploration pinned" `Quick
            test_wpaxos_exploration_pinned;
        ] );
    ]
