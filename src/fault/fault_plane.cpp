#include "fault/fault_plane.hpp"

#include <chrono>
#include <cmath>
#include <string>
#include <thread>

#include "common/error.hpp"
#include "common/json.hpp"
#include "obs/journal.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace fth::fault {

namespace {

// Address span of a column-major view (half-open, in elements).
struct Span {
  const double* lo;
  const double* hi;
};

Span span_of(MatrixView<const double> v) {
  if (v.empty() || v.data() == nullptr) return {nullptr, nullptr};
  return {v.data(), v.data() + (v.cols() - 1) * v.ld() + v.rows()};
}

bool overlaps(MatrixView<const double> a, MatrixView<const double> b) {
  const Span sa = span_of(a), sb = span_of(b);
  if (sa.lo == nullptr || sb.lo == nullptr) return false;
  return sa.lo < sb.hi && sb.lo < sa.hi;
}

int draw_flip_bit(FaultKind k, int spec_bit, Rng& rng) {
  switch (k) {
    case FaultKind::BitFlip:
      return spec_bit >= 0 && spec_bit < 64 ? spec_bit : static_cast<int>(rng.below(64));
    case FaultKind::SignFlip:
      return 63;
    case FaultKind::ExponentFlip:
      return spec_bit >= 52 && spec_bit <= 62 ? spec_bit : 52 + static_cast<int>(rng.below(11));
    case FaultKind::MantissaFlip:
      return spec_bit >= 0 && spec_bit <= 51 ? spec_bit : static_cast<int>(rng.below(52));
    default:
      return -1;
  }
}

}  // namespace

std::string to_string(When w) {
  switch (w) {
    case When::StreamTask: return "stream-task";
    case When::TransferH2D: return "transfer-h2d";
    case When::TransferD2H: return "transfer-d2h";
    case When::BetweenUpdates: return "between-updates";
    case When::DuringRecovery: return "during-recovery";
  }
  return "?";
}

std::string to_string(Surface s) {
  switch (s) {
    case Surface::TrailingMatrix: return "trailing-matrix";
    case Surface::ChecksumRow: return "checksum-row";
    case Surface::ChecksumCol: return "checksum-col";
    case Surface::Checkpoint: return "checkpoint";
  }
  return "?";
}

std::string to_string(LossKind k) {
  switch (k) {
    case LossKind::SilentStall: return "silent-stall";
    case LossKind::PoisonOutput: return "poison-output";
    case LossKind::HardDeath: return "hard-death";
  }
  return "?";
}

FaultPlane::FaultPlane(std::uint64_t seed) : rng_(seed) {}

FaultPlane::~FaultPlane() { unbind(); }

void FaultPlane::arm(const InFlightFault& f) {
  FTH_CHECK(f.countdown >= 1, "fault countdown must be at least 1");
  std::lock_guard lock(m_);
  armed_.push_back({f, f.countdown, false});
  obs::counter_metric("fault.inflight_armed").add();
}

void FaultPlane::bind(hybrid::Device& dev) {
  std::lock_guard lock(m_);
  FTH_CHECK(dev_ == nullptr || dev_ == &dev, "fault plane already bound to another device");
  dev_ = &dev;
  dev.stream().set_task_hook([this](std::uint64_t idx) { on_task_hook(idx); });
  dev.set_transfer_hook(
      [this](hybrid::TransferDir dir, MatrixView<double> dst) { on_transfer_hook(dir, dst); });
}

void FaultPlane::unbind() {
  // Callers must have drained the stream first (the drivers synchronize
  // before returning or throwing), so no hook invocation can be in flight
  // once the hooks are cleared here. The one exception is a SilentStall
  // strike still blocking a pool worker: stall_release_ frees it below, and
  // we wait for it to leave the plane before returning so the destructor
  // can never free state under a blocked hook.
  hybrid::Device* dev = nullptr;
  hybrid::DevicePool* pool = nullptr;
  {
    std::lock_guard lock(m_);
    dev = dev_;
    dev_ = nullptr;
    pool = pool_;
    pool_ = nullptr;
    for (auto& r : surfaces_) r.valid = false;
    transfer_targets_.clear();
    loss_surfaces_.clear();
  }
  stall_release_.store(true);
  while (stalls_active_.load() > 0)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  if (dev != nullptr) {
    dev->stream().set_task_hook(nullptr);
    dev->set_transfer_hook(nullptr);
  }
  if (pool != nullptr) {
    for (int d = 0; d < pool->size(); ++d) pool->stream(d).set_task_hook(nullptr);
  }
}

void FaultPlane::arm_device_loss(const DeviceLossFault& f) {
  FTH_CHECK(f.countdown >= 1, "device-loss countdown must be at least 1");
  FTH_CHECK(f.device >= 0, "device-loss target must be a pool ordinal");
  std::lock_guard lock(m_);
  armed_losses_.push_back({f, f.countdown, false});
  obs::counter_metric("fault.device_loss.armed").add();
}

void FaultPlane::bind_pool(hybrid::DevicePool& pool) {
  {
    std::lock_guard lock(m_);
    FTH_CHECK(pool_ == nullptr || pool_ == &pool,
              "fault plane already bound to another pool");
    pool_ = &pool;
    pool_counts_.assign(static_cast<std::size_t>(pool.size()), 0);
    loss_surfaces_.assign(static_cast<std::size_t>(pool.size()), MatrixView<double>{});
  }
  for (int d = 0; d < pool.size(); ++d) {
    hybrid::Stream* s = &pool.stream(d);
    pool.stream(d).set_task_hook([this, d, s](std::uint64_t) { on_pool_task_hook(d, s); });
  }
}

void FaultPlane::register_loss_surface_host(int device, MatrixView<double> view) {
  std::lock_guard lock(m_);
  if (static_cast<std::size_t>(device) >= loss_surfaces_.size())
    loss_surfaces_.resize(static_cast<std::size_t>(device) + 1, MatrixView<double>{});
  loss_surfaces_[static_cast<std::size_t>(device)] = view;
}

void FaultPlane::on_pool_task_hook(int device, hybrid::Stream* s) {
  LossKind todo = LossKind::HardDeath;
  bool fire = false;
  {
    std::lock_guard lock(m_);
    if (!encoded_) return;
    if (static_cast<std::size_t>(device) >= pool_counts_.size())
      pool_counts_.resize(static_cast<std::size_t>(device) + 1, 0);
    const std::uint64_t idx = ++pool_counts_[static_cast<std::size_t>(device)];
    for (auto& a : armed_losses_) {
      if (a.fired || a.spec.device != device) continue;
      if (--a.remaining != 0) continue;
      a.fired = true;
      fired_losses_.push_back({a.spec.kind, device, idx});
      obs::counter_metric("fault.device_loss.injected").add();
      obs::counter_metric("fault.device_loss.injected.dev" + std::to_string(device)).add();
      obs::counter_metric("fault.device_loss." + [k = a.spec.kind] {
        switch (k) {
          case LossKind::SilentStall: return std::string("stall");
          case LossKind::PoisonOutput: return std::string("poison");
          case LossKind::HardDeath: return std::string("hard_death");
        }
        return std::string("?");
      }()).add();
      // Log the strike itself: this is the t0 fth_incident measures
      // detection latency from.
      obs::journal_log(obs::JournalSeverity::Error, "fault", "device_loss", device,
                       static_cast<double>(idx), -1, obs::intern_name(to_string(a.spec.kind)));
      todo = a.spec.kind;
      fire = true;
      if (todo == LossKind::PoisonOutput) {
        // Scribble over the member's registered shard while we still hold
        // m_ — we are on that device's own worker thread, so this is the
        // same discipline as fire_on_view.
        MatrixView<double> v = loss_surfaces_[static_cast<std::size_t>(device)];
        if (!v.empty()) {
          for (int k = 0; k < 4; ++k) {
            const index_t row =
                static_cast<index_t>(rng_.below(static_cast<std::uint64_t>(v.rows())));
            const index_t col =
                static_cast<index_t>(rng_.below(static_cast<std::uint64_t>(v.cols())));
            v(row, col) = 1e30 * static_cast<double>(k + 1);
          }
        }
      }
      break;
    }
  }
  if (!fire) return;
  // The blocking/stream-touching halves run without m_: a stalled worker
  // must not wedge the plane, and kill() takes the stream's own mutex.
  if (todo == LossKind::HardDeath) {
    s->kill();
  } else if (todo == LossKind::SilentStall) {
    stalls_active_.fetch_add(1);
    while (!stall_release_.load() && !s->killed())
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    stalls_active_.fetch_sub(1);
  }
}

void FaultPlane::register_surface(Surface s, MatrixView<double> view, SurfaceShape shape) {
  std::lock_guard lock(m_);
  auto& r = surfaces_[static_cast<int>(s)];
  r.valid = true;
  r.view = view;
  r.shape = shape;
}

void FaultPlane::clear_surface(Surface s) {
  std::lock_guard lock(m_);
  surfaces_[static_cast<int>(s)].valid = false;
}

void FaultPlane::add_transfer_target(Surface tag, MatrixView<double> view) {
  std::lock_guard lock(m_);
  transfer_targets_.push_back({tag, view});
}

void FaultPlane::clear_transfer_targets() {
  std::lock_guard lock(m_);
  transfer_targets_.clear();
}

void FaultPlane::mark_encoded() {
  std::lock_guard lock(m_);
  encoded_ = true;
}

void FaultPlane::set_in_recovery(bool active) {
  std::lock_guard lock(m_);
  in_recovery_ = active;
}

const FaultPlane::Registered* FaultPlane::surface_for(Surface s) const {
  const auto& r = surfaces_[static_cast<int>(s)];
  return r.valid && !r.view.empty() ? &r : nullptr;
}

void FaultPlane::on_task_hook(std::uint64_t) {
  std::lock_guard lock(m_);
  if (!encoded_) return;
  ++counts_.tasks;
  for (auto& a : armed_) {
    if (a.fired) continue;
    const bool eligible = a.spec.when == When::StreamTask ||
                          (a.spec.when == When::DuringRecovery && in_recovery_);
    if (!eligible) continue;
    if (--a.remaining == 0) fire_on_surface(a, counts_.tasks);
  }
}

void FaultPlane::on_transfer_hook(hybrid::TransferDir dir, MatrixView<double> dst) {
  std::lock_guard lock(m_);
  if (!encoded_) return;
  // Only transfers landing on a registered surface are eligible: a strike
  // on a shipped operand (V, T, W) is self-consistent under the checksum
  // relation and undetectable by construction.
  Surface hit = Surface::TrailingMatrix;
  bool eligible = false;
  for (int s = 0; s < 4 && !eligible; ++s) {
    const auto& r = surfaces_[s];
    if (r.valid && overlaps(r.view, dst)) {
      hit = static_cast<Surface>(s);
      eligible = true;
    }
  }
  for (std::size_t t = 0; t < transfer_targets_.size() && !eligible; ++t) {
    if (overlaps(transfer_targets_[t].view, dst)) {
      hit = transfer_targets_[t].tag;
      eligible = true;
    }
  }
  if (!eligible) return;
  const When want =
      dir == hybrid::TransferDir::H2D ? When::TransferH2D : When::TransferD2H;
  auto& count = dir == hybrid::TransferDir::H2D ? counts_.h2d : counts_.d2h;
  ++count;
  for (auto& a : armed_) {
    if (a.fired || a.spec.when != want) continue;
    if (--a.remaining == 0)
      fire_on_view(a, dst, SurfaceShape::Full, hit, want, count);
  }
}

void FaultPlane::on_between_updates(hybrid::Stream& s) {
  {
    std::lock_guard lock(m_);
    if (!encoded_) return;
    ++counts_.between_updates;
    bool any = false;
    for (const auto& a : armed_)
      if (!a.fired && a.spec.when == When::BetweenUpdates) any = true;
    if (!any) return;
  }
  // Enqueued so the corruption executes in order between the two updates'
  // device tasks, touching device memory only from the worker thread.
  s.enqueue([this] {
    std::lock_guard lock(m_);
    for (auto& a : armed_) {
      if (a.fired || a.spec.when != When::BetweenUpdates) continue;
      if (--a.remaining == 0) fire_on_surface(a, counts_.between_updates);
    }
  });
}

void FaultPlane::fire_on_surface(ArmedFault& a, std::uint64_t trigger_index) {
  const Registered* r = surface_for(a.spec.surface);
  if (r == nullptr) {
    // Surface not (yet) registered: stay armed and retry on the next
    // eligible trigger rather than silently dropping the fault.
    a.remaining = 1;
    return;
  }
  fire_on_view(a, r->view, r->shape, a.spec.surface, a.spec.when, trigger_index);
}

void FaultPlane::fire_on_view(ArmedFault& a, MatrixView<double> view, SurfaceShape shape,
                              Surface surface, When when, std::uint64_t trigger_index) {
  if (view.empty()) {
    a.remaining = 1;
    return;
  }
  FiredFault rec;
  rec.when = when;
  rec.surface = surface;
  rec.kind = a.spec.kind;
  rec.trigger_index = trigger_index;

  // Redraw element and bit until the corruption is impactful enough; a
  // low-mantissa flip on a tiny element would be numerically invisible and
  // defeat campaigns that assert detection.
  for (int attempt = 0; attempt < 64; ++attempt) {
    index_t col = static_cast<index_t>(rng_.below(static_cast<std::uint64_t>(view.cols())));
    index_t row;
    if (shape == SurfaceShape::LowerTriangle) {
      if (col >= view.rows()) col = view.rows() - 1;
      row = col + static_cast<index_t>(
                      rng_.below(static_cast<std::uint64_t>(view.rows() - col)));
    } else {
      row = static_cast<index_t>(rng_.below(static_cast<std::uint64_t>(view.rows())));
    }
    const double before = view(row, col);
    const int bit = draw_flip_bit(a.spec.kind, a.spec.bit, rng_);
    const double after =
        bit >= 0 ? flip_bit(before, bit)
                 : corrupt_value(before, a.spec.kind, a.spec.bit, a.spec.delta, rng_);
    const bool impactful = !std::isfinite(after) ||
                           std::abs(after - before) >= a.spec.min_impact;
    if ((after != before || !std::isfinite(after)) && impactful) {
      rec.row = row;
      rec.col = col;
      rec.before = before;
      rec.after = after;
      rec.bit = bit;
      view(row, col) = after;
      break;
    }
    if (attempt == 63) {
      // Could not meet min_impact (e.g. an all-zero surface): strike the
      // last candidate anyway so the fault is never silently lost.
      rec.row = row;
      rec.col = col;
      rec.before = before;
      rec.after = after;
      rec.bit = bit;
      view(row, col) = after;
    }
  }

  a.fired = true;
  fired_.push_back(rec);
  obs::counter_metric("fault.inflight_fired").add();
  // Per-device attribution so a pool campaign can tell which member a
  // strike landed on (single-device runs report .dev0).
  if (dev_ != nullptr)
    obs::counter_metric("fault.inflight_fired.dev" + std::to_string(dev_->ordinal())).add();
  if (!std::isfinite(rec.after)) obs::counter_metric("fault.nonfinite_injected").add();
  if (rec.bit >= 0) obs::counter_metric("fault.bitflips").add();
  obs::journal_log(obs::JournalSeverity::Error, "fault", "strike",
                   dev_ != nullptr ? dev_->ordinal() : -1,
                   static_cast<double>(rec.trigger_index), -1,
                   obs::intern_name(to_string(rec.kind) + " @ " + to_string(rec.surface)));
}

std::vector<FiredFault> FaultPlane::fired() const {
  std::lock_guard lock(m_);
  return fired_;
}

bool FaultPlane::all_fired() const {
  std::lock_guard lock(m_);
  for (const auto& a : armed_)
    if (!a.fired) return false;
  return true;
}

int FaultPlane::armed_remaining() const {
  std::lock_guard lock(m_);
  int n = 0;
  for (const auto& a : armed_)
    if (!a.fired) ++n;
  return n;
}

TriggerCounts FaultPlane::trigger_counts() const {
  std::lock_guard lock(m_);
  return counts_;
}

std::vector<FiredLoss> FaultPlane::fired_losses() const {
  std::lock_guard lock(m_);
  return fired_losses_;
}

std::uint64_t FaultPlane::pool_task_count(int device) const {
  std::lock_guard lock(m_);
  if (device < 0 || static_cast<std::size_t>(device) >= pool_counts_.size()) return 0;
  return pool_counts_[static_cast<std::size_t>(device)];
}

std::string strikes_json(const FaultPlane& plane) {
  // Injected values can be NaN/Inf by design — emit null for those so the
  // capsule stays valid JSON.
  std::string out = "{\"faults\":[";
  const std::vector<FiredFault> faults = plane.fired();
  for (std::size_t i = 0; i < faults.size(); ++i) {
    const FiredFault& f = faults[i];
    if (i > 0) out += ',';
    out += "{\"when\":\"" + to_string(f.when) + "\",\"surface\":\"" + to_string(f.surface) +
           "\",\"kind\":\"" + to_string(f.kind) + "\"";
    out += ",\"row\":" + std::to_string(f.row) + ",\"col\":" + std::to_string(f.col);
    out += ",\"before\":";
    json::append_number(out, f.before);
    out += ",\"after\":";
    json::append_number(out, f.after);
    out += ",\"bit\":" + std::to_string(f.bit) +
           ",\"trigger_index\":" + std::to_string(f.trigger_index) + "}";
  }
  out += "],\"losses\":[";
  const std::vector<FiredLoss> losses = plane.fired_losses();
  for (std::size_t i = 0; i < losses.size(); ++i) {
    const FiredLoss& l = losses[i];
    if (i > 0) out += ',';
    out += "{\"kind\":\"" + to_string(l.kind) + "\",\"device\":" + std::to_string(l.device) +
           ",\"trigger_index\":" + std::to_string(l.trigger_index) + "}";
  }
  out += "]}";
  return out;
}

}  // namespace fth::fault
