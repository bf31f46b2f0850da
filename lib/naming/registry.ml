type design = Entangled | Separated

type purpose = Machine | Mailbox | Brand

type t = {
  design : design;
  (* (label, purpose) -> owner *)
  table : (string * purpose, string) Hashtbl.t;
  mutable disruptions : int;
  mutable disputes : int;
}

let create design =
  { design; table = Hashtbl.create 64; disruptions = 0; disputes = 0 }

let holder_of_label t label =
  (* in the entangled design, any purpose binding claims the label *)
  let purposes = [ Machine; Mailbox; Brand ] in
  List.find_map
    (fun p -> Hashtbl.find_opt t.table (label, p) |> Option.map (fun o -> (p, o)))
    purposes

let register t ~owner ~label purpose =
  match t.design with
  | Separated -> begin
    match Hashtbl.find_opt t.table (label, purpose) with
    | Some existing when not (String.equal existing owner) -> Error (`Taken existing)
    | Some _ | None ->
      Hashtbl.replace t.table (label, purpose) owner;
      Ok ()
  end
  | Entangled -> begin
    match holder_of_label t label with
    | Some (_, existing) when not (String.equal existing owner) ->
      Error (`Taken existing)
    | Some _ | None ->
      Hashtbl.replace t.table (label, purpose) owner;
      Ok ()
  end

let lookup t ~label purpose = Hashtbl.find_opt t.table (label, purpose)

let dispute t ~claimant ~label =
  t.disputes <- t.disputes + 1;
  match t.design with
  | Separated -> begin
    (* only the brand directory entry is contested *)
    match Hashtbl.find_opt t.table (label, Brand) with
    | None -> `No_target
    | Some _ ->
      Hashtbl.replace t.table (label, Brand) claimant;
      `Transferred []
  end
  | Entangled -> begin
    match holder_of_label t label with
    | None -> `No_target
    | Some (_, previous_owner) ->
      (* the whole label moves; service bindings of the loser break *)
      let disrupted =
        List.filter
          (fun p ->
            match Hashtbl.find_opt t.table (label, p) with
            | Some o when String.equal o previous_owner ->
              Hashtbl.replace t.table (label, p) claimant;
              true
            | Some _ -> false
            | None -> false)
          [ Machine; Mailbox ]
      in
      (match Hashtbl.find_opt t.table (label, Brand) with
      | Some _ | None -> Hashtbl.replace t.table (label, Brand) claimant);
      t.disruptions <- t.disruptions + List.length disrupted;
      `Transferred disrupted
  end

let bindings t =
  Hashtbl.fold (fun (label, p) owner acc -> (label, p, owner) :: acc) t.table []
  |> List.sort compare

let disruptions t = t.disruptions

let disputes_filed t = t.disputes

let spillover t =
  if t.disputes = 0 then 0.0
  else float_of_int t.disruptions /. float_of_int t.disputes
