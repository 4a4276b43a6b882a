let ramp = " .:-=+*#%@"

let render ppf ?row_label ~rows ~cols counts =
  if rows <= 0 || cols <= 0 || rows * cols <> Array.length counts then
    invalid_arg "Heatmap.render: dimensions do not match counts";
  let vmax = Array.fold_left max 0 counts in
  let levels = String.length ramp in
  let scale = if vmax = 0 then 1.0 else log (1.0 +. float_of_int vmax) in
  let canvas = Ascii.create ~rows ~cols in
  for r = 0 to rows - 1 do
    for c = 0 to cols - 1 do
      let v = counts.((r * cols) + c) in
      let i =
        if v <= 0 then 0
        else begin
          let f = log (1.0 +. float_of_int v) /. scale in
          min (levels - 1) (int_of_float (f *. float_of_int (levels - 1) +. 0.5))
        end
      in
      Ascii.set canvas ~row:r ~col:c ramp.[i]
    done
  done;
  Ascii.render ppf ?row_labels:row_label canvas;
  Format.fprintf ppf "scale: '%s' (log), max cell = %d@." ramp vmax
