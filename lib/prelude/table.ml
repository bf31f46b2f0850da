type align = Left | Right

type t = {
  headers : string list;
  aligns : align list;
  mutable rows : string list list; (* reversed *)
}

let create ?aligns headers =
  let aligns =
    match aligns with
    | None -> List.map (fun _ -> Right) headers
    | Some a ->
      if List.length a <> List.length headers then
        invalid_arg "Table.create: aligns length mismatch";
      a
  in
  { headers; aligns; rows = [] }

let add_row t row =
  if List.length row <> List.length t.headers then
    invalid_arg "Table.add_row: column count mismatch";
  t.rows <- row :: t.rows

let fmt_pct x = Printf.sprintf "%.1f%%" (100.0 *. x)

let render t =
  let rows = List.rev t.rows in
  let all = t.headers :: rows in
  let ncols = List.length t.headers in
  let widths = Array.make ncols 0 in
  let measure row =
    List.iteri
      (fun i cell -> widths.(i) <- max widths.(i) (String.length cell))
      row
  in
  List.iter measure all;
  let pad align width cell =
    let fill = width - String.length cell in
    match align with
    | Left -> cell ^ String.make fill ' '
    | Right -> String.make fill ' ' ^ cell
  in
  let render_row row =
    let cells =
      List.mapi
        (fun i cell -> pad (List.nth t.aligns i) widths.(i) cell)
        row
    in
    String.concat "  " cells
  in
  let rule =
    String.concat "--"
      (Array.to_list (Array.map (fun w -> String.make w '-') widths))
  in
  let body = List.map render_row rows in
  String.concat "\n" ((render_row t.headers :: rule :: body)) ^ "\n"

let print t = print_string (render t)
