(* The event stack (§8.6 in DESIGN.md): always-on runtime observability
   and the trace sinks over the same rings.

   This root module re-exports the pieces and owns the two process-wide
   bits of state every component shares: the obs epoch (so all wall-clock
   rings timestamp against one clock and merge into one timeline) and the
   enabled switch. "Always-on" means the default is on; PRIVAGIC_OBS=off
   exists so the CI overhead gate has an off-state to compare against,
   not as something users are expected to set. *)

module Phase = Phase
module Ring = Ring
module Trace = Ring.Trace
module Lane = Lane
module Registry = Registry
module Chrome_trace = Chrome_trace
module Summary = Summary
module Critical_path = Critical_path

let enabled_ref =
  ref
    (match Sys.getenv_opt "PRIVAGIC_OBS" with
    | Some ("0" | "off" | "false" | "no") -> false
    | _ -> true)

let enabled () = !enabled_ref
let set_enabled b = enabled_ref := b

(* Process obs epoch: all ring timestamps are integer microseconds since
   this instant (see clock.ml — Ring's amortized clock shares it). *)
let epoch = Clock.epoch
let now_us = Clock.now_us
