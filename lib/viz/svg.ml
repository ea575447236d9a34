open Rc_geom

type t = {
  width : float;
  height : float;
  margin : float;
  buf : Buffer.t;
}

let create ?(margin = 20.0) ~width ~height () =
  { width; height; margin; buf = Buffer.create 4096 }

(* layout viewers put the origin bottom-left; SVG is top-left *)
let tx t (p : Point.t) = p.Point.x +. t.margin
let ty t (p : Point.t) = t.height -. p.Point.y +. t.margin

let line t ?(stroke = "#444") ?(width = 1.0) ?dash (a : Point.t) (b : Point.t) =
  Buffer.add_string t.buf
    (Printf.sprintf
       "<line x1=\"%.1f\" y1=\"%.1f\" x2=\"%.1f\" y2=\"%.1f\" stroke=\"%s\" stroke-width=\"%.2f\"%s/>\n"
       (tx t a) (ty t a) (tx t b) (ty t b) stroke width
       (match dash with None -> "" | Some d -> Printf.sprintf " stroke-dasharray=\"%s\"" d))

let rect t ?(stroke = "#222") ?(fill = "none") ?(width = 1.0) (r : Rect.t) =
  Buffer.add_string t.buf
    (Printf.sprintf
       "<rect x=\"%.1f\" y=\"%.1f\" width=\"%.1f\" height=\"%.1f\" stroke=\"%s\" fill=\"%s\" stroke-width=\"%.2f\"/>\n"
       (r.Rect.xmin +. t.margin)
       (t.height -. r.Rect.ymax +. t.margin)
       (Rect.width r) (Rect.height r) stroke fill width)

let circle t ?(fill = "#1f77b4") ?(r = 2.0) (p : Point.t) =
  Buffer.add_string t.buf
    (Printf.sprintf "<circle cx=\"%.1f\" cy=\"%.1f\" r=\"%.1f\" fill=\"%s\"/>\n" (tx t p) (ty t p)
       r fill)

let square_marker t ?(fill = "#d62728") ?(half = 4.0) (p : Point.t) =
  Buffer.add_string t.buf
    (Printf.sprintf
       "<rect x=\"%.1f\" y=\"%.1f\" width=\"%.1f\" height=\"%.1f\" fill=\"%s\"/>\n"
       (tx t p -. half) (ty t p -. half) (2.0 *. half) (2.0 *. half) fill)

let text t ?(size = 14.0) ?(fill = "#000") (p : Point.t) s =
  Buffer.add_string t.buf
    (Printf.sprintf "<text x=\"%.1f\" y=\"%.1f\" font-size=\"%.1f\" fill=\"%s\">%s</text>\n"
       (tx t p) (ty t p) size fill s)

let to_string t =
  let w = t.width +. (2.0 *. t.margin) and h = t.height +. (2.0 *. t.margin) in
  Printf.sprintf
    "<?xml version=\"1.0\" encoding=\"UTF-8\"?>\n\
     <svg xmlns=\"http://www.w3.org/2000/svg\" width=\"%.0f\" height=\"%.0f\" viewBox=\"0 0 %.0f %.0f\">\n\
     <rect width=\"%.0f\" height=\"%.0f\" fill=\"white\"/>\n%s</svg>\n"
    w h w h w h (Buffer.contents t.buf)

