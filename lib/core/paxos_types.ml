type pno = { tag : int; proposer : int }

let compare_pno a b =
  match Int.compare a.tag b.tag with
  | 0 -> Int.compare a.proposer b.proposer
  | c -> c

let pno_lt a b = compare_pno a b < 0

let pno_le a b = compare_pno a b <= 0

let pp_pno { tag; proposer } = Printf.sprintf "%d.%d" tag proposer

type prior = { pno : pno; value : int }

let max_prior a b =
  match (a, b) with
  | None, x | x, None -> x
  | Some pa, Some pb -> if pno_lt pa.pno pb.pno then b else a

let max_committed a b =
  match (a, b) with
  | None, x | x, None -> x
  | Some na, Some nb -> if pno_lt na nb then b else a

type proposer_msg = Prepare of pno | Propose of { pno : pno; value : int }

let pno_of_proposer_msg = function Prepare pno -> pno | Propose { pno; _ } -> pno

type round = Prepare_round | Propose_round

let round_rank = function Prepare_round -> 0 | Propose_round -> 1

let compare_proposition (pa, ra) (pb, rb) =
  match compare_pno pa pb with
  | 0 -> Int.compare (round_rank ra) (round_rank rb)
  | c -> c

type response = {
  dest : int;
  target : int;
  pno : pno;
  round : round;
  positive : bool;
  count : int;
  best_prior : prior option;
  committed : pno option;
}

let mergeable a b =
  a.dest = b.dest && a.target = b.target
  && compare_pno a.pno b.pno = 0
  && a.round = b.round && a.positive = b.positive

let merge a b =
  if not (mergeable a b) then invalid_arg "Paxos_types.merge: not mergeable";
  {
    a with
    count = a.count + b.count;
    best_prior = max_prior a.best_prior b.best_prior;
    committed = max_committed a.committed b.committed;
  }

let aggregate responses =
  let merged = ref [] in
  let absorb r =
    let rec place = function
      | [] -> [ r ]
      | existing :: rest ->
          if mergeable existing r then merge existing r :: rest
          else existing :: place rest
    in
    merged := place !merged
  in
  List.iter absorb responses;
  !merged

let pp_round = function Prepare_round -> "prep" | Propose_round -> "prop"

let pp_proposer_msg = function
  | Prepare pno -> Printf.sprintf "prepare(%s)" (pp_pno pno)
  | Propose { pno; value } -> Printf.sprintf "propose(%s,v=%d)" (pp_pno pno) value

let pp_response r =
  Printf.sprintf "resp{to=%d;tgt=%d;%s/%s;%s;x%d%s%s}" r.dest r.target
    (pp_pno r.pno) (pp_round r.round)
    (if r.positive then "yes" else "no")
    r.count
    (match r.best_prior with
    | None -> ""
    | Some p -> Printf.sprintf ";prior=%s:%d" (pp_pno p.pno) p.value)
    (match r.committed with
    | None -> ""
    | Some c -> Printf.sprintf ";comm=%s" (pp_pno c))

let proposer_msg_ids = function Prepare _ | Propose _ -> 1

let response_ids r =
  (* dest, target, pno.proposer, plus ids inside prior/committed. *)
  3
  + (match r.best_prior with None -> 0 | Some _ -> 1)
  + match r.committed with None -> 0 | Some _ -> 1

let rec in_rank_order rank = function
  | a :: (b :: _ as rest) -> rank a <= rank b && in_rank_order rank rest
  | [] | [ _ ] -> true

let by_rank rank components =
  if in_rank_order rank components then components
  else
    List.stable_sort (fun a b -> Int.compare (rank a) (rank b)) components
