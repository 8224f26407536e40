(* In-memory span recorder for the traced run.

   Spans are aggregated by their path in the span tree (workload ->
   phase -> operation -> route probe / handler), so millions of
   per-delivery handler spans cost one counter update each and nothing
   is written until [dump] at the end.  A span's self time is its
   duration minus the time its child spans cover. *)

let now_ns () = Monotonic_clock.now ()
let now_s () = Int64.to_float (now_ns ()) *. 1e-9

type node = {
  name : string;
  path : string;
  children : (string, node) Hashtbl.t;
  mutable order : node list;  (* children, reverse first-entry order *)
  mutable count : int;
  mutable total_ns : int64;
  mutable child_ns : int64;
}

let make ~name ~path =
  {
    name;
    path;
    children = Hashtbl.create 8;
    order = [];
    count = 0;
    total_ns = 0L;
    child_ns = 0L;
  }

let root = make ~name:"" ~path:""

(* Open spans, innermost first. *)
let stack = ref [ root ]

let child parent name =
  match Hashtbl.find_opt parent.children name with
  | Some n -> n
  | None ->
    let path = if parent.path = "" then name else parent.path ^ "/" ^ name in
    let n = make ~name ~path in
    Hashtbl.replace parent.children name n;
    parent.order <- n :: parent.order;
    n

let top () = match !stack with n :: _ -> n | [] -> root

(* Pop through [node] (also any span an exception left open inside it)
   and charge its duration to the span below it. *)
let close node t0 =
  let dt = Int64.sub (now_ns ()) t0 in
  node.count <- node.count + 1;
  node.total_ns <- Int64.add node.total_ns dt;
  let rec drop = function
    | [] -> [ root ]
    | n :: rest -> if n == node then rest else drop rest
  in
  let rest = drop !stack in
  let rest = if rest = [] then [ root ] else rest in
  (List.hd rest).child_ns <- Int64.add (List.hd rest).child_ns dt;
  stack := rest

(* [with_ name f] runs [f] inside a span named [name] under the
   innermost open span. *)
let with_ name f =
  let node = child (top ()) name in
  stack := node :: !stack;
  let t0 = now_ns () in
  Fun.protect ~finally:(fun () -> close node t0) f

(* Handler spans: the node is resolved once by the caller ([child (top
   ()) "stack.rx"]) and the wrapped call runs with no lookup.  Handlers
   never raise in a passing run; an exception leaves the stack to
   [with_]'s [finally] of the enclosing span. *)
let timed node f x =
  stack := node :: !stack;
  let t0 = now_ns () in
  f x;
  close node t0

let seconds ns = Int64.to_float ns *. 1e-9
let self_ns n = Int64.sub n.total_ns n.child_ns

(* Every node whose name is [name], anywhere under [under]. *)
let rec find_all under name =
  let here =
    List.concat_map (fun c -> find_all c name) (List.rev under.order)
  in
  if under.name = name then under :: here else here

let find_path path =
  let rec go node = function
    | [] -> Some node
    | name :: rest -> (
      match Hashtbl.find_opt node.children name with
      | Some c -> go c rest
      | None -> None)
  in
  go root (String.split_on_char '/' path)

let sum f nodes = List.fold_left (fun acc n -> Int64.add acc (f n)) 0L nodes

let dump oc =
  let rec go depth n =
    if n != root then
      Printf.fprintf oc "span %-*s%-28s n=%-9d total=%10.6fs self=%10.6fs\n"
        (2 * depth) "" n.name n.count (seconds n.total_ns)
        (seconds (self_ns n));
    List.iter (go (depth + 1)) (List.rev n.order)
  in
  go (-1) root
