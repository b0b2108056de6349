#include "src/analog/modulator_bank.hpp"

#include <algorithm>
#include <stdexcept>

#include "src/common/checkpoint.hpp"

namespace tono::analog {
namespace {

std::vector<ModulatorConfig> derived_configs(const ModulatorConfig& base,
                                             std::size_t lanes) {
  std::vector<ModulatorConfig> configs(lanes, base);
  for (std::size_t k = 1; k < lanes; ++k) {
    // Same mixing Rng::fork applies to its salt; splitmix64 seeding then
    // scrambles whatever structure remains. Plain `seed + k` would hand
    // splitmix sequential states and give overlapping xoshiro states.
    configs[k].seed =
        base.seed ^ (k * 0x9E3779B97F4A7C15ull + 0x632BE59BD9B4E019ull);
  }
  return configs;
}

}  // namespace

ModulatorBank::ModulatorBank(const std::vector<ModulatorConfig>& configs) {
  if (configs.empty()) {
    throw std::invalid_argument{"ModulatorBank: need at least one lane"};
  }
  owned_.reserve(configs.size());
  for (const auto& config : configs) owned_.emplace_back(config);
  for (auto& lane : owned_) lanes_.push_back(&lane);
  init_();
}

ModulatorBank::ModulatorBank(const ModulatorConfig& base, std::size_t lanes)
    : ModulatorBank(derived_configs(base, lanes)) {}

ModulatorBank::ModulatorBank() { init_(); }

void ModulatorBank::init_() {
  // Resolve the kernel once; the bank's dispatch is fixed for its lifetime
  // (tests pin a level with simd::force_active_level before construction).
  level_ = simd::active_level();
  kernel_ = nullptr;
#if defined(TONO_SIMD_AVX2)
  if (level_ == simd::Level::kAvx2) kernel_ = &bankkernel::run_packets_avx2;
#endif
#if defined(TONO_SIMD_NEON)
  if (level_ == simd::Level::kNeon) kernel_ = &bankkernel::run_packets_neon;
#endif
  if (kernel_ == nullptr) level_ = simd::Level::kScalar;
  width_ = simd::level_width(level_);
  size_lanes_();
  auto& reg = metrics::Registry::global();
  packed_lane_frames_ = &reg.counter(metrics::names::kBankPackedLaneFrames);
  narrow_lane_frames_ = &reg.counter(metrics::names::kBankNarrowLaneFrames);
  step_block_timer_ = &reg.timer(metrics::names::kBankStepBlock);
}

void ModulatorBank::size_lanes_() {
  const std::size_t n = lanes_.size();
  lane_keys_.resize(n);
  for (std::size_t k = 0; k < n; ++k) lane_keys_[k] = lanes_[k]->structure_key_();
  inputs_.resize(n);
  enabled_.assign(n, 1);
  shared_raw_.resize(n * 2 * kFrame);
  fill_rngs_.reserve(n);
  fill_dests_.reserve(n);
  fill_ns_.reserve(n);
  fill_lanes_.reserve(n);
  packets_dirty_ = true;
}

void ModulatorBank::set_lanes(std::span<DeltaSigmaModulator* const> lanes) {
  if (!owned_.empty()) {
    throw std::logic_error{"ModulatorBank::set_lanes: this bank owns its lanes"};
  }
  bool same = lanes.size() == lanes_.size();
  for (std::size_t k = 0; same && k < lanes.size(); ++k) {
    same = lanes[k] == lanes_[k] && lanes[k]->structure_key_() == lane_keys_[k];
  }
  if (same) return;
  lanes_.assign(lanes.begin(), lanes.end());
  size_lanes_();
}

void ModulatorBank::rebuild_packets_() {
  using namespace bankkernel;
  packets_.clear();
  views_.clear();
  lane_packet_.assign(lanes_.size(), kNoPacket);
  lane_slot_.assign(lanes_.size(), 0);
  packets_dirty_ = false;
  // Each lane's own 1-lane view carries its control structure and
  // invariants, and it is the view a lane outside every packet runs.
  lane_views_.clear();
  for (DeltaSigmaModulator* lane : lanes_) lane_views_.push_back(lane->kernel_view_());
  if (width_ > 1) {
    // Group enabled lanes by control structure, preserving lane order within
    // each group, then cut each group into full-width packets. Group order
    // follows first appearance, so the layout is deterministic.
    std::vector<std::pair<std::uint32_t, std::vector<std::size_t>>> groups;
    for (std::size_t k = 0; k < lanes_.size(); ++k) {
      if (!enabled_[k]) continue;
      const std::uint32_t key = lane_keys_[k];
      auto it = std::find_if(groups.begin(), groups.end(),
                             [key](const auto& g) { return g.first == key; });
      if (it == groups.end()) {
        groups.push_back({key, {k}});
      } else {
        it->second.push_back(k);
      }
    }
    for (const auto& [key, members] : groups) {
      for (std::size_t i = 0; i + width_ <= members.size(); i += width_) {
        Packet p;
        p.owner = this;
        for (std::size_t w = 0; w < width_; ++w) {
          const std::size_t lk = members[i + w];
          p.lane[w] = lk;
          lane_packet_[lk] = packets_.size();
          lane_slot_[lk] = w;
        }
        packets_.push_back(p);
      }
    }
  }
  for (Packet& p : packets_) {
    // The packet's structure is its lanes' (they share a key); every pointer
    // moves to the packet's SoA storage.
    PacketView v = lane_views_[p.lane[0]];
    v.width = width_;
    for (std::size_t f = 0; f < kNumState; ++f) v.state[f] = p.state[f].data();
    for (std::size_t f = 0; f < kNumInvariant; ++f) v.in[f] = p.in[f].data();
    for (std::size_t s = 0; s < kNumSource; ++s) {
      if (v.noise[s] != nullptr) v.noise[s] = p.noise.data() + s * kPlanStride;
    }
    v.bits = p.bits.data();
    v.ctx = &p;
    v.settle_fn = &ModulatorBank::settle_cb_;
    v.metastable_fn = &ModulatorBank::metastable_cb_;
    views_.push_back(v);
  }
  for (std::size_t k = 0; k < lanes_.size(); ++k) {
    if (narrow_(k)) views_.push_back(lane_views_[k]);
  }
}

void ModulatorBank::load_packet_state_() {
  for (std::size_t k = 0; k < lanes_.size(); ++k) {
    if (enabled_[k]) lanes_[k]->load_kernel_(inputs_[k].u);
  }
  for (Packet& p : packets_) {
    for (std::size_t w = 0; w < width_; ++w) {
      const bankkernel::PacketView& lane = lane_views_[p.lane[w]];
      for (std::size_t f = 0; f < bankkernel::kNumState; ++f) {
        p.state[f][w] = *lane.state[f];
      }
      for (std::size_t f = 0; f < bankkernel::kNumInvariant; ++f) {
        p.in[f][w] = *lane.in[f];
      }
    }
  }
}

void ModulatorBank::store_packet_state_() {
  for (Packet& p : packets_) {
    for (std::size_t w = 0; w < width_; ++w) {
      const bankkernel::PacketView& lane = lane_views_[p.lane[w]];
      for (std::size_t f = 0; f < bankkernel::kNumState; ++f) {
        *lane.state[f] = p.state[f][w];
      }
    }
  }
  for (std::size_t k = 0; k < lanes_.size(); ++k) {
    if (enabled_[k]) lanes_[k]->store_kernel_();
  }
}

template <class Pick>
void ModulatorBank::fill_batched_(Pick pick) {
  fill_rngs_.clear();
  fill_dests_.clear();
  fill_ns_.clear();
  fill_lanes_.clear();
  for (std::size_t k = 0; k < lanes_.size(); ++k) {
    if (!enabled_[k]) continue;
    const Fill f = pick(k);
    if (f.n == 0) continue;
    fill_rngs_.push_back(f.rng);
    fill_dests_.push_back(f.dest);
    fill_ns_.push_back(f.n);
    fill_lanes_.push_back(k);
  }
  Rng::fill_gaussian_multi(fill_rngs_.data(), fill_dests_.data(),
                           fill_ns_.data(), fill_rngs_.size());
}

void ModulatorBank::fill_lane_plans_(std::size_t frame) {
  // Each enabled lane's fill_noise_plan_, with every source group's Gaussian
  // generation batched across lanes through Rng::fill_gaussian_multi. The
  // streams are distinct objects, so batching changes neither any stream's
  // output nor its end state (multi == per-stream fill_gaussian, pinned by
  // test_rng.cpp), and the groups run in the same per-lane order as the
  // solo helper. Zero-length fills are skipped on both paths (no-ops).
  using namespace bankkernel;

  // Shared white stream: first-stage white and op-amp 2 noise, interleaved.
  fill_batched_([&](std::size_t k) {
    return Fill{&lanes_[k]->rng_, shared_raw_.data() + k * 2 * kFrame,
                frame * lanes_[k]->shared_draws_per_clock_()};
  });
  // De-interleave: packet lanes write their scaled values straight into the
  // transposed packet buffers (their plan_ stays unused), 1-lane views into
  // their own plan_.
  for (std::size_t j = 0; j < fill_lanes_.size(); ++j) {
    const std::size_t k = fill_lanes_[j];
    DeltaSigmaModulator& lane = *lanes_[k];
    if (lane_packet_[k] == kNoPacket) {
      lane.build_shared_plan_(frame, inputs_[k].white1_sigma, fill_dests_[j],
                              lane.plan_.data(), kFrame, 1);
    } else {
      Packet& p = packets_[lane_packet_[k]];
      lane.build_shared_plan_(frame, inputs_[k].white1_sigma, fill_dests_[j],
                              p.noise.data() + lane_slot_[k], kPlanStride,
                              width_);
    }
  }

  // Flicker streams: one standard normal per sample, batch-drawn into each
  // lane's plan buffer; the Voss-McCartney row replay then runs in place.
  for (const Source src : {kFl1, kFl2}) {
    fill_batched_([&](std::size_t k) {
      DeltaSigmaModulator& lane = *lanes_[k];
      PinkNoise& flicker = src == kFl1 ? lane.flicker1_ : lane.flicker2_;
      return Fill{&flicker.noise_stream(), lane.plan_of_(src),
                  lane.source_on_[src] ? frame : 0};
    });
    for (std::size_t j = 0; j < fill_lanes_.size(); ++j) {
      DeltaSigmaModulator& lane = *lanes_[fill_lanes_[j]];
      double* plan = fill_dests_[j];
      (src == kFl1 ? lane.flicker1_ : lane.flicker2_)
          .fill_next_from(plan, plan, frame);
      lane.scale_flicker_(
          plan, src == kFl1 ? lane.flicker_scale1_ : lane.flicker_scale2_, frame);
    }
  }

  // Comparator noise: Comparator::plan hands back the stream; the standard
  // normals are batch-drawn straight into each lane's plan buffer, then
  // mapped with the same affine fill_gaussian(…, 0.0, σ) applies.
  fill_batched_([&](std::size_t k) {
    double* plan = lanes_[k]->plan_of_(kComp);
    Rng* stream = lanes_[k]->comparator_.plan(plan, frame);
    return Fill{stream, plan, stream != nullptr ? frame : 0};
  });
  for (std::size_t j = 0; j < fill_lanes_.size(); ++j) {
    const double sigma = lanes_[fill_lanes_[j]]->comparator_.config().noise_vrms;
    double* buf = fill_dests_[j];
    for (std::size_t i = 0; i < frame; ++i) buf[i] = 0.0 + sigma * buf[i];
  }

  std::size_t filled = 0;
  for (std::size_t k = 0; k < lanes_.size(); ++k) filled += enabled_[k];
  lanes_[0]->noise_plan_fills_metric_->add(filled);  // one plan per lane

  // [clock] → [clock][lane] with stride = width_ for the packet plans that
  // materialize per lane: the flicker stages, whose Voss-McCartney replay is
  // inherently per-lane, and the comparator's, which the metastable resync
  // regenerates in place. Disabled sources skip entirely (their view
  // pointers are null, like step_normalized's untaken branches).
  for (std::size_t pi = 0; pi < packets_.size(); ++pi) {
    Packet& p = packets_[pi];
    for (const Source src : {kFl1, kFl2, kComp}) {
      if (views_[pi].noise[src] == nullptr) continue;
      double* t = p.noise.data() + src * kPlanStride;
      for (std::size_t w = 0; w < width_; ++w) {
        const double* plan = lanes_[p.lane[w]]->plan_of_(src);
        for (std::size_t i = 0; i < frame; ++i) t[i * width_ + w] = plan[i];
      }
    }
  }
}

double ModulatorBank::settle_cb_(void* ctx, std::size_t slot, int stage,
                                 double v) {
  Packet& p = *static_cast<Packet*>(ctx);
  return DeltaSigmaModulator::settle_cb_(p.owner->lanes_[p.lane[slot]], 0,
                                         stage, v);
}

double ModulatorBank::metastable_cb_(void* ctx, std::size_t slot,
                                     std::size_t clock) {
  Packet& p = *static_cast<Packet*>(ctx);
  DeltaSigmaModulator& lane = *p.owner->lanes_[p.lane[slot]];
  const double decision = DeltaSigmaModulator::metastable_cb_(&lane, 0, clock);
  if (lane.source_on_[bankkernel::kComp]) {
    // The resync regenerated the lane's linear plan tail (clock+1 …); the
    // kernel reads the transposed copy, so refresh it.
    const std::size_t w_n = p.owner->width_;
    const double* plan = lane.plan_of_(bankkernel::kComp);
    double* t = p.noise.data() + bankkernel::kComp * kPlanStride;
    for (std::size_t i = clock + 1; i < p.frame_len; ++i) {
      t[i * w_n + slot] = plan[i];
    }
  }
  return decision;
}

void ModulatorBank::step_capacitive_block(const double* c_sense_f,
                                          const double* c_ref_f, int* bits_out,
                                          std::size_t n) {
  metrics::TraceSpan span(*step_block_timer_);
  if (n == 0 || lanes_.empty()) return;
  if (packets_dirty_) rebuild_packets_();
  for (std::size_t k = 0; k < lanes_.size(); ++k) {
    if (enabled_[k]) {
      inputs_[k] = lanes_[k]->capacitive_input_(c_sense_f[k], c_ref_f[k]);
    }
  }
  load_packet_state_();
  const std::size_t n_wide = packets_.size();
  std::size_t done = 0;
  while (done < n) {
    const std::size_t frame = std::min<std::size_t>(n - done, kFrame);
    fill_lane_plans_(frame);
    for (Packet& p : packets_) {
      p.frame_len = frame;
      for (std::size_t w = 0; w < width_; ++w) {
        p.bits[w] = bits_out + p.lane[w] * n + done;
      }
    }
    for (std::size_t k = 0; k < lanes_.size(); ++k) {
      if (narrow_(k)) lanes_[k]->kernel_.bits = bits_out + k * n + done;
    }
    if (n_wide > 0) kernel_(views_.data(), n_wide, frame);
    if (views_.size() > n_wide) {
      bankkernel::run_packets_scalar(views_.data() + n_wide,
                                     views_.size() - n_wide, frame);
    }
    done += frame;
  }
  store_packet_state_();
  const std::size_t frames = (n + kFrame - 1) / kFrame;
  packed_lane_frames_->add(n_wide * width_ * frames);
  narrow_lane_frames_->add((views_.size() - n_wide) * frames);
}

void ModulatorBank::set_lane_enabled(std::size_t k, bool enabled) {
  if (k >= lanes_.size()) {
    throw std::out_of_range{"ModulatorBank::set_lane_enabled: bad lane"};
  }
  const std::uint8_t v = enabled ? 1 : 0;
  if (enabled_[k] != v) {
    enabled_[k] = v;
    packets_dirty_ = true;
  }
}

std::size_t ModulatorBank::enabled_lanes() const noexcept {
  std::size_t count = 0;
  for (const std::uint8_t e : enabled_) count += e;
  return count;
}

void ModulatorBank::reset() {
  for (DeltaSigmaModulator* lane : lanes_) lane->reset();
}

void ModulatorBank::serialize(CheckpointWriter& out) const {
  out.section("modulator_bank");
  out.size(lanes_.size());
  for (const std::uint8_t e : enabled_) out.u8(e);
  for (const DeltaSigmaModulator* lane : lanes_) lane->serialize(out);
}

void ModulatorBank::restore(CheckpointReader& in) {
  in.section("modulator_bank");
  const std::size_t lanes = in.size();
  if (lanes != lanes_.size()) {
    throw CheckpointError{"ModulatorBank checkpoint lane count " +
                          std::to_string(lanes) + " != configured " +
                          std::to_string(lanes_.size())};
  }
  for (auto& e : enabled_) {
    const std::uint8_t v = in.u8();
    if (v > 1) {
      throw CheckpointError{"ModulatorBank checkpoint enable flag corrupt"};
    }
    e = v;
  }
  for (DeltaSigmaModulator* lane : lanes_) lane->restore(in);
  packets_dirty_ = true;
}

}  // namespace tono::analog
