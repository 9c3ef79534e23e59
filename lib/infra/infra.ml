(** Physical Internet-infrastructure substrate (§3.2): cables, repeaters,
    grounding, whole networks and their GIC exposure. *)

module Repeater = Repeater
module Cable = Cable
module Grounding = Grounding
module Network = Network
module Exposure = Exposure
