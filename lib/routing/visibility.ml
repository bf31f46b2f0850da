module Graph = Tussle_prelude.Graph

let linkstate_exposure ls ~total_links =
  if total_links <= 0 then invalid_arg "Visibility.linkstate_exposure";
  float_of_int (Linkstate.visible_links ls)
  /. float_of_int total_links

let record_path seen (src, _dst, path) =
  let rec walk prev = function
    | [] -> ()
    | hop :: rest ->
      Hashtbl.replace seen (prev, hop) ();
      walk hop rest
  in
  walk src path

let pathvector_exposure_at pv ~node ~total_links =
  if total_links <= 0 then invalid_arg "Visibility.pathvector_exposure_at";
  let seen = Hashtbl.create 64 in
  List.iter
    (fun ((src, _, _) as entry) -> if src = node then record_path seen entry)
    (Pathvector.visible_paths pv);
  float_of_int (Hashtbl.length seen) /. float_of_int total_links

let linkstate_policy_levers _ls = 0

let pathvector_policy_levers g = Graph.edge_count g
