// bank_kernel.hpp — the planned ΔΣ step kernel: the only planned
// implementation of the modulator's charge-transfer recurrence, at any lane
// width W. step_normalized (modulator.cpp) stays as the per-clock reference
// the tests compare against.
//
// One PacketView describes a *packet*: W lanes whose configs share the same
// control structure (loop order, settling, which noise sources exist), laid
// out SoA — per-lane state and invariants as width-sized arrays, per-frame
// noise plans [clock][lane] so each clock is one contiguous vector load. Lane
// *values* (seeds, capacitances, noise magnitudes, inputs) are free to
// differ; only the branch structure must be uniform, because the kernel's
// `if (p.noise[kOp2])`-style branches are per-packet, not per-lane.
//
// Three policies instantiate it: AVX2 (W=4) and NEON (W=2) for the
// ModulatorBank's full packets, and scalar (W=1, always compiled) for
// everything else — a solo DeltaSigmaModulator::step_capacitive_block, which
// runs a 1-lane view of its own state and noise plan (stride 1, so no
// transpose), and the bank lanes that do not fill a W-wide packet. So the
// bank == solo contract is one kernel at two widths.
//
// Every arithmetic operation is elementwise IEEE (add/sub/mul/div, compare,
// select, sign flip), which vector units round exactly like scalar units —
// that is the entire bit-exactness argument against step_normalized. The two
// places the model is not elementwise-expressible stay scalar per lane,
// behind masks:
//   * op-amp partial settling (OpAmp::settle calls exp()): lanes whose step
//     exceeds the provable full-settle threshold drop out of the vector for
//     that clock via `settle_fn` and rejoin with the returned value;
//   * comparator metastability (data-dependent Bernoulli + plan resync):
//     lanes inside the metastable band resolve through `metastable_fn`,
//     which replays the scalar slow path and rewrites the lane's comparator
//     plan tail (including a packet's transposed copy) before returning the
//     decision.
// Both are rare at the paper's operating point; their cost amortizes away.
//
// Loop order is clock-outer / packet-inner within groups of packets: each
// packet's per-clock dependency chain is long (two divisions plus the
// comparator decide feed the next clock), so interleaving packets lets
// independent chains overlap in the core instead of serializing. A packet's
// fields live in locals for the whole call (Regs), not behind view pointers.
#pragma once

#include <cstddef>

namespace tono::analog::bankkernel {

/// Widest kernel lane count (AVX2: 4 × f64). Packet storage pads to this.
inline constexpr std::size_t kMaxWidth = 4;

/// Per-lane state the kernel reads and writes (PacketView::state).
enum State : std::size_t {
  kX1,     ///< first-integrator state, full-scale units
  kX2,     ///< second-integrator state (stage pairs are adjacent: s = 0, 1)
  kD,      ///< previous output bit as ±1.0
  kLast,   ///< comparator hysteresis memory as ±1.0
  kTime,   ///< clock time [s]
  kMax1,   ///< largest |integrator 1| voltage
  kMax2,
  kClips,  ///< clipped-update count accumulator (double)
  kNumState
};

/// Per-lane invariants (PacketView::in).
enum Invariant : std::size_t {
  kG1U,           ///< loop.g1 * normalized input (set per block)
  kA1,            ///< loop.a1
  kP2,            ///< loop.g2 * g2_mismatch (pre-multiplied, same
                  ///< association as the scalar expression)
  kA2,            ///< loop.a2
  kScale,         ///< loop.state_scale_v
  kLeak1,         ///< op-amp leak factors
  kLeak2,
  kSwing1,        ///< op-amp output swings (clip bounds)
  kSwing2,
  kSettle1,       ///< full-settle thresholds
  kSettle2,
  kCompOffset,
  kCompHalfHyst,  ///< 0.5 * hysteresis_v, pre-multiplied
  kCompBand,      ///< metastable band
  kClockPeriod,
  kNumInvariant
};

/// Noise sources, one per-frame plan each (PacketView::noise). kWhite1 is
/// the first integrator's white noise: kT/C, reference and op-amp 1 noise
/// add at the same node in the same clock, so they are one Gaussian
/// (DeltaSigmaModulator::white1_sigma_).
enum Source : std::size_t { kWhite1, kFl1, kOp2, kFl2, kComp, kNumSource };

struct PacketView {
  std::size_t width{0};  ///< lanes in this packet (== kernel width)

  /// Per-lane state, width entries per field. A W-wide packet's owner loads
  /// these from the lane objects before a block and writes them back after
  /// (see ModulatorBank); a 1-lane view points at the modulator's own members.
  double* state[kNumState]{};
  /// Per-lane invariants, width entries per field.
  const double* in[kNumInvariant]{};
  /// Per-frame noise plans, [clock][lane] with stride = width; nullptr when
  /// the source is disabled for this packet (matching step_normalized's
  /// conditional adds).
  const double* noise[kNumSource]{};

  bool order2{true};
  bool settling{true};

  /// Per-lane output bit pointers: lane slot w's bit for clock i goes to
  /// bits[w][i].
  int* const* bits{nullptr};

  // Masked scalar escapes (see file comment). `slot` is the lane's index
  // within this packet; `ctx` identifies the packet to the owner.
  void* ctx{nullptr};
  double (*settle_fn)(void* ctx, std::size_t slot, int stage,
                      double v){nullptr};
  double (*metastable_fn)(void* ctx, std::size_t slot,
                          std::size_t clock){nullptr};
};

/// Entry points, one per policy. Every packet must have width == the
/// kernel's lane count. The scalar (W=1) one is always compiled (modulator.cpp);
/// the ISA ones have a TU each (modulator_bank_avx2.cpp / _neon.cpp).
void run_packets_scalar(PacketView* packets, std::size_t n_packets,
                        std::size_t n_clocks);
void run_packets_avx2(PacketView* packets, std::size_t n_packets,
                      std::size_t n_clocks);
void run_packets_neon(PacketView* packets, std::size_t n_packets,
                      std::size_t n_clocks);

/// One packet's state, invariants, noise-plan pointers and output cursors,
/// held in locals for one run_packets call (a frame): the clock loop reaches
/// none of them through a PacketView pointer, and the compiler may keep a
/// lone packet's copy in registers. Only the state is written back.
template <class V>
struct Regs {
  typename V::D state[kNumState];
  typename V::D in[kNumInvariant];
  const double* noise[kNumSource];
  int* bits[V::kW];
  bool order2;
  bool settling;

  void load(const PacketView& p) noexcept {
    for (std::size_t f = 0; f < kNumState; ++f) state[f] = V::load(p.state[f]);
    for (std::size_t f = 0; f < kNumInvariant; ++f) in[f] = V::load(p.in[f]);
    for (std::size_t s = 0; s < kNumSource; ++s) noise[s] = p.noise[s];
    for (std::size_t w = 0; w < V::kW; ++w) bits[w] = p.bits[w];
    order2 = p.order2;
    settling = p.settling;
  }
  void store(const PacketView& p) const noexcept {
    for (std::size_t f = 0; f < kNumState; ++f) V::store(p.state[f], state[f]);
  }
};

/// One integrator stage (s = 0 first, 1 second) of a packet: settles the
/// charge step `delta` (noise already added), integrates with leak, clips to
/// the output swing, counts clips into `clips`, tracks the peak and stores
/// the new state, which it returns.
template <class V>
[[gnu::always_inline]] inline typename V::D integrate(
    const PacketView& p, Regs<V>& r, std::size_t s, typename V::D delta,
    typename V::D scale, typename V::D& clips) {
  using D = typename V::D;
  if (r.settling) {
    // settle(v) returns v bit-for-bit at or below the full-settle threshold
    // (OpAmp::full_settle_threshold), and settle(±0) returns +0.0.
    const D v = V::mul(delta, scale);
    D numer = V::select(V::cmp_eq(v, V::zero()), V::zero(), v);
    const typename V::M slow = V::cmp_nle(V::abs(v), r.in[kSettle1 + s]);
    if (V::any(slow)) {
      double va[V::kW];
      double na[V::kW];
      V::store(va, v);
      V::store(na, numer);
      unsigned m = V::mask(slow);
      do {
        const unsigned w = V::ctz(m);
        m &= m - 1;
        na[w] = p.settle_fn(p.ctx, w, static_cast<int>(s + 1), va[w]);
      } while (m != 0);
      numer = V::load(na);
    }
    delta = V::div(numer, scale);
  }
  const D x_new = V::add(V::mul(r.in[kLeak1 + s], r.state[kX1 + s]), delta);
  const D v_x = V::mul(x_new, scale);
  const D sw = r.in[kSwing1 + s];
  const D nsw = V::neg(sw);
  const D x = V::div(
      V::select(V::cmp_lt(v_x, nsw), nsw, V::select(V::cmp_lt(sw, v_x), sw, v_x)),
      scale);
  clips = V::add(clips, V::select(V::cmp_neq(x, x_new), V::one(), V::zero()));
  const D ax = V::abs(V::mul(x, scale));
  const D mx = r.state[kMax1 + s];
  r.state[kMax1 + s] = V::select(V::cmp_lt(mx, ax), ax, mx);
  r.state[kX1 + s] = x;
  return x;
}

/// `delta` plus source `src`'s plan value for clock offset `off`, when the
/// source exists.
template <class V>
[[gnu::always_inline]] inline typename V::D add_noise(const Regs<V>& r,
                                                      Source src,
                                                      std::size_t off,
                                                      typename V::D delta) {
  const double* plan = r.noise[src];
  return plan != nullptr ? V::add(delta, V::load(plan + off)) : delta;
}

/// Clock `i` of one packet, on its frame-local copy `r`.
template <class V>
[[gnu::always_inline]] inline void step_clock(const PacketView& p, Regs<V>& r,
                                              std::size_t i) {
  using D = typename V::D;
  const std::size_t off = i * V::kW;
  const D scale = r.in[kScale];
  const D d = r.state[kD];
  const D x1_prev = r.state[kX1];

  // delta1 = g1*u - a1*d + n1 [+ flicker 1], as step_normalized adds them.
  D delta1 = V::sub(r.in[kG1U], V::mul(r.in[kA1], d));
  delta1 = add_noise<V>(r, kFl1, off, add_noise<V>(r, kWhite1, off, delta1));
  D clips = r.state[kClips];
  const D x1 = integrate<V>(p, r, 0, delta1, scale, clips);
  D y;
  if (r.order2) {
    // delta2 = (g2 * g2_mismatch) * x1_prev - a2 * d [+ op-amp 2 + flicker 2]
    D delta2 = V::sub(V::mul(r.in[kP2], x1_prev), V::mul(r.in[kA2], d));
    delta2 = add_noise<V>(r, kFl2, off, add_noise<V>(r, kOp2, off, delta2));
    y = V::mul(integrate<V>(p, r, 1, delta2, scale, clips), scale);
  } else {
    y = V::mul(x1, scale);
  }
  r.state[kClips] = clips;

  // Comparator::decide with planned noise: v = y - offset [+ noise];
  // v -= halfhyst * (-last); |v| < band → metastable slow path.
  const D cv = V::sub(
      add_noise<V>(r, kComp, off, V::sub(y, r.in[kCompOffset])),
      V::mul(r.in[kCompHalfHyst], V::neg(r.state[kLast])));
  D newlast = V::select(V::cmp_ge(cv, V::zero()), V::one(), V::neg(V::one()));
  const typename V::M meta = V::cmp_lt(V::abs(cv), r.in[kCompBand]);
  if (V::any(meta)) {
    // The escape rewrites the comparator plan tail in place; the next clock
    // reloads it through r.noise.
    double la[V::kW];
    V::store(la, newlast);
    unsigned m = V::mask(meta);
    do {
      const unsigned w = V::ctz(m);
      m &= m - 1;
      la[w] = p.metastable_fn(p.ctx, w, i);
    } while (m != 0);
    newlast = V::load(la);
  }
  r.state[kLast] = newlast;
  r.state[kD] = newlast;
  r.state[kTime] = V::add(r.state[kTime], r.in[kClockPeriod]);
  double lb[V::kW];
  V::store(lb, newlast);
  for (std::size_t w = 0; w < V::kW; ++w) r.bits[w][i] = static_cast<int>(lb[w]);
}

/// The kernel template each policy TU instantiates with its vector-ops
/// policy V (width V::kW, vector type V::D, mask type V::M plus the
/// elementwise ops used here). Defined in the header so each ISA TU compiles
/// its own copy with its own target flags; nothing here is ISA-specific.
///
/// Each packet's fields are loaded into a Regs once per call and stored back
/// at the end. A lone packet (a solo modulator) runs its clocks straight
/// through; otherwise packets go in groups of kGroup, clock-outer /
/// packet-inner within a group. Packets never share state, so the grouping
/// changes scheduling only.
template <class V>
inline void run_packets(PacketView* packets, std::size_t n_packets,
                        std::size_t n_clocks) {
  if (n_packets == 1) {
    Regs<V> r;
    r.load(packets[0]);
    for (std::size_t i = 0; i < n_clocks; ++i) step_clock<V>(packets[0], r, i);
    r.store(packets[0]);
    return;
  }
  constexpr std::size_t kGroup = 8;
  Regs<V> regs[kGroup];
  for (std::size_t first = 0; first < n_packets; first += kGroup) {
    PacketView* group = packets + first;
    const std::size_t m = n_packets - first < kGroup ? n_packets - first : kGroup;
    for (std::size_t j = 0; j < m; ++j) regs[j].load(group[j]);
    for (std::size_t i = 0; i < n_clocks; ++i) {
      for (std::size_t j = 0; j < m; ++j) step_clock<V>(group[j], regs[j], i);
    }
    for (std::size_t j = 0; j < m; ++j) regs[j].store(group[j]);
  }
}

}  // namespace tono::analog::bankkernel
