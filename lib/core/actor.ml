type kind =
  | User
  | Isp
  | Private_network
  | Government
  | Rights_holder
  | Content_provider
  | Designer

let all_kinds =
  [ User; Isp; Private_network; Government; Rights_holder; Content_provider;
    Designer ]

let kind_to_string = function
  | User -> "user"
  | Isp -> "isp"
  | Private_network -> "private-network"
  | Government -> "government"
  | Rights_holder -> "rights-holder"
  | Content_provider -> "content-provider"
  | Designer -> "designer"

type t = {
  id : int;
  name : string;
  kind : kind;
  stance : Interest.stance;
}

let default_stance kind =
  let open Interest in
  match kind with
  | User ->
    make
      [ (Privacy, 0.8); (Transparency, 0.7); (Openness, 0.6); (Control, -0.6);
        (Revenue, -0.3) ]
  | Isp ->
    make
      [ (Revenue, 0.9); (Control, 0.6); (Transparency, -0.3); (Openness, -0.2);
        (Security, 0.2) ]
  | Private_network ->
    make [ (Security, 0.8); (Control, 0.7); (Transparency, -0.4) ]
  | Government ->
    make
      [ (Control, 0.8); (Accountability, 0.8); (Security, 0.5); (Privacy, -0.6) ]
  | Rights_holder ->
    make [ (Control, 0.9); (Revenue, 0.8); (Openness, -0.5); (Privacy, -0.4) ]
  | Content_provider ->
    make [ (Openness, 0.7); (Revenue, 0.7); (Innovation, 0.5); (Control, -0.3) ]
  | Designer ->
    make
      [ (Innovation, 0.9); (Openness, 0.8); (Transparency, 0.6); (Control, -0.4) ]

let make ~id ~name kind =
  { id; name; kind; stance = default_stance kind }

let utility t outcome = Interest.dot t.stance outcome

let pp ppf t =
  Format.fprintf ppf "%s(%s) %a" t.name (kind_to_string t.kind) Interest.pp
    t.stance
