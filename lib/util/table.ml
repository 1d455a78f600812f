type t = {
  title : string;
  columns : string list;
  mutable rows : string list list;
  mutable notes : string list;
}

let create ~title ~columns = { title; columns; rows = []; notes = [] }
let add_row t row = t.rows <- row :: t.rows
let add_note t note = t.notes <- note :: t.notes

let render t =
  let rows = List.rev t.rows in
  let ncols = List.length t.columns in
  let pad row =
    let n = List.length row in
    if n >= ncols then row
    else row @ List.init (ncols - n) (fun _ -> "")
  in
  let rows = List.map pad rows in
  let widths = Array.make ncols 0 in
  let measure row =
    List.iteri
      (fun i cell ->
        if i < ncols && String.length cell > widths.(i) then
          widths.(i) <- String.length cell)
      row
  in
  measure t.columns;
  List.iter measure rows;
  let buf = Buffer.create 256 in
  let line row =
    List.iteri
      (fun i cell ->
        if i > 0 then Buffer.add_string buf "  ";
        Buffer.add_string buf cell;
        if i < ncols - 1 then
          Buffer.add_string buf (String.make (widths.(i) - String.length cell) ' '))
      row;
    Buffer.add_char buf '\n'
  in
  Buffer.add_string buf ("== " ^ t.title ^ " ==\n");
  line t.columns;
  let total = Array.fold_left (fun a w -> a + w + 2) (-2) widths in
  Buffer.add_string buf (String.make (max 1 total) '-');
  Buffer.add_char buf '\n';
  List.iter line rows;
  List.iter
    (fun n -> Buffer.add_string buf ("  note: " ^ n ^ "\n"))
    (List.rev t.notes);
  Buffer.contents buf

let print t =
  print_string (render t);
  print_newline ()
