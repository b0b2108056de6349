// session_mix.hpp — the admission mix shared by ward_server and the ward
// benchmark (wardbench/ward.cpp). Every ward_server transport admits the
// same configs for the same (index, flags), because CI diffs their hospital
// snapshots: a loopback or TCP run must be bit-identical to a direct-ingest
// run (docs/GATEWAY.md "Determinism contracts").
#pragma once

#include <cstddef>
#include <cstdlib>
#include <string>

#include "src/bio/pulse_generator.hpp"
#include "src/fleet/patient_session.hpp"

namespace tono::examples {

/// The admission mix: clinically distinct presets so a ward of any size has
/// quiet patients, alarm-worthy ones, and one scenario-driven crash.
inline fleet::SessionConfig session_mix(std::size_t index) {
  fleet::SessionConfig config;
  switch (index % 5) {
    case 0:
      break;  // normotensive at rest
    case 1:
      config.wrist.pulse = bio::PatientPresets::hypertensive();
      break;
    case 2:
      config.wrist.pulse = bio::PatientPresets::tachycardic();
      break;
    case 3:
      config.scenario = "hypotensive";  // the E10 crash a cuff would miss
      break;
    case 4:
      config.scenario = "exercise";
      break;
  }
  return config;
}

inline const char* mix_label(std::size_t index) {
  switch (index % 5) {
    case 0: return "rest";
    case 1: return "hypertensive";
    case 2: return "tachycardic";
    case 3: return "hypotensive-episode";
    case 4: return "exercise";
  }
  return "rest";
}

/// "--fault-plan contact=1,link=1,element=1[,unrecoverable=0.1]": per-session
/// event counts (and the unrecoverable probability) of the seeded schedule
/// each session generates from its own forked fault stream.
inline bool parse_fault_plan(const std::string& spec, fleet::FaultPlanConfig* plan,
                             std::string* error) {
  std::size_t pos = 0;
  while (pos < spec.size()) {
    const std::size_t comma = spec.find(',', pos);
    const std::string item =
        spec.substr(pos, comma == std::string::npos ? std::string::npos : comma - pos);
    const std::size_t eq = item.find('=');
    if (eq == std::string::npos || eq == 0 || eq + 1 >= item.size()) {
      *error = "--fault-plan: expected key=value, got '" + item + "'";
      return false;
    }
    const std::string key = item.substr(0, eq);
    const std::string val = item.substr(eq + 1);
    char* end = nullptr;
    const double v = std::strtod(val.c_str(), &end);
    if (end == val.c_str() || *end != '\0' || v < 0.0) {
      *error = "--fault-plan: bad value in '" + item + "'";
      return false;
    }
    if (key == "contact") {
      plan->contact_loss_events = static_cast<std::size_t>(v);
    } else if (key == "link") {
      plan->link_bursts = static_cast<std::size_t>(v);
    } else if (key == "element") {
      plan->element_faults = static_cast<std::size_t>(v);
    } else if (key == "unrecoverable") {
      plan->unrecoverable_prob = v;
    } else {
      *error = "--fault-plan: unknown key '" + key +
               "' (want contact, link, element, unrecoverable)";
      return false;
    }
    if (comma == std::string::npos) break;
    pos = comma + 1;
  }
  return true;
}

}  // namespace tono::examples
