open Rc_geom

type t = { width : float; height : float; buf : Buffer.t }

(* blank border around the drawing, um *)
let margin = 20.0

let create ~width ~height = { width; height; buf = Buffer.create 4096 }

(* layout viewers put the origin bottom-left; SVG is top-left *)
let tx (p : Point.t) = p.Point.x +. margin
let ty t (p : Point.t) = t.height -. p.Point.y +. margin

let line t (a : Point.t) (b : Point.t) =
  Buffer.add_string t.buf
    (Printf.sprintf
       "<line x1=\"%.1f\" y1=\"%.1f\" x2=\"%.1f\" y2=\"%.1f\" stroke=\"#d62728\" stroke-width=\"1.20\"/>\n"
       (tx a) (ty t a) (tx b) (ty t b))

let rect t ?(stroke = "#222") ?(width = 1.0) (r : Rect.t) =
  Buffer.add_string t.buf
    (Printf.sprintf
       "<rect x=\"%.1f\" y=\"%.1f\" width=\"%.1f\" height=\"%.1f\" stroke=\"%s\" fill=\"none\" stroke-width=\"%.2f\"/>\n"
       (r.Rect.xmin +. margin)
       (t.height -. r.Rect.ymax +. margin)
       (Rect.width r) (Rect.height r) stroke width)

let circle t ?(fill = "#1f77b4") ?(r = 2.0) (p : Point.t) =
  Buffer.add_string t.buf
    (Printf.sprintf "<circle cx=\"%.1f\" cy=\"%.1f\" r=\"%.1f\" fill=\"%s\"/>\n" (tx p) (ty t p) r fill)

let square_marker t (p : Point.t) =
  Buffer.add_string t.buf
    (Printf.sprintf
       "<rect x=\"%.1f\" y=\"%.1f\" width=\"6.0\" height=\"6.0\" fill=\"#d62728\"/>\n"
       (tx p -. 3.0) (ty t p -. 3.0))

let text t (p : Point.t) s =
  Buffer.add_string t.buf
    (Printf.sprintf "<text x=\"%.1f\" y=\"%.1f\" font-size=\"24.0\" fill=\"#000\">%s</text>\n"
       (tx p) (ty t p) s)

let to_string t =
  let w = t.width +. (2.0 *. margin) and h = t.height +. (2.0 *. margin) in
  Printf.sprintf
    "<?xml version=\"1.0\" encoding=\"UTF-8\"?>\n\
     <svg xmlns=\"http://www.w3.org/2000/svg\" width=\"%.0f\" height=\"%.0f\" viewBox=\"0 0 %.0f %.0f\">\n\
     <rect width=\"%.0f\" height=\"%.0f\" fill=\"white\"/>\n%s</svg>\n"
    w h w h w h (Buffer.contents t.buf)

