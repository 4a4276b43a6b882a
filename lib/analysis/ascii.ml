type canvas = {
  nrows : int;
  ncols : int;
  cells : Bytes.t;
}

let create ~rows ~cols =
  if rows <= 0 || cols <= 0 then invalid_arg "Ascii.create";
  { nrows = rows; ncols = cols; cells = Bytes.make (rows * cols) ' ' }

let set c ~row ~col ch =
  if row >= 0 && row < c.nrows && col >= 0 && col < c.ncols then
    Bytes.set c.cells ((row * c.ncols) + col) ch

let render ppf ?row_labels c =
  let labels =
    match row_labels with
    | None -> Array.make c.nrows ""
    | Some f -> Array.init c.nrows f
  in
  let width = Array.fold_left (fun w s -> max w (String.length s)) 0 labels in
  let sep = if width = 0 then "" else " " in
  for r = 0 to c.nrows - 1 do
    let label = labels.(r) in
    let pad = String.make (width - String.length label) ' ' in
    let line = Bytes.sub_string c.cells (r * c.ncols) c.ncols in
    (* Trim trailing blanks to keep output tidy. *)
    let len = ref (String.length line) in
    while !len > 0 && line.[!len - 1] = ' ' do
      decr len
    done;
    Format.fprintf ppf "%s%s%s|%s@." pad label sep (String.sub line 0 !len)
  done
