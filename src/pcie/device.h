// PCIe device framework.
//
// A PcieDevice is attached to exactly one host's root complex at a time.
// Its CPU-facing surface is MMIO registers (BAR); its memory-facing surface
// is DMA, which resolves through the global AddressMap — so an unmodified
// device can target local DRAM or CXL pool memory, which is the paper's
// core enabling observation ("PCIe devices can directly use CXL memory as
// I/O buffers without device modifications").
//
// Only the attached host can issue MMIO to the device. Remote hosts go
// through the core/ MMIO forwarding channel (paper §4.1) or, in the
// baseline, through a hardware PCIe switch (switch_fabric.h).
#ifndef SRC_PCIE_DEVICE_H_
#define SRC_PCIE_DEVICE_H_

#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "src/common/ids.h"
#include "src/common/status.h"
#include "src/cxl/host_adapter.h"
#include "src/cxl/params.h"
#include "src/obs/registry.h"
#include "src/sim/bandwidth.h"
#include "src/sim/task.h"

namespace cxlpool::pcie {

struct PcieTiming {
  // Posted MMIO write: the device observes the register change after
  // mmio_write; the issuing CPU only pays mmio_post_cpu (write buffer).
  Nanos mmio_write = 300;
  Nanos mmio_post_cpu = 60;
  // Non-posted MMIO read (round trip).
  Nanos mmio_read = 900;
  // Fixed per-DMA-operation overhead (request issue, root complex, device
  // engine) on top of memory latency and link serialization.
  Nanos dma_overhead = 400;
  // Extra one-way latency per hop through a hardware PCIe switch (the
  // baseline fabric this paper argues against on cost, not performance).
  Nanos switch_hop = 150;
  // How long a requester stalls on a *wedged* device before its completion
  // timeout fires: MMIO reads and DMA hang this long and then return
  // kDeadlineExceeded. Posted MMIO writes have no completion to time out —
  // they are silently absorbed. Mirrors a PCIe completion timeout.
  Nanos wedge_stall = 20 * kMicrosecond;
};

// Interposer a fabric (e.g. the PCIe switch baseline) installs between a
// device and its bound host to charge extra hop latency and shared fabric
// bandwidth. The device itself stays unmodified — the fabric is
// transparent, exactly like a real switch.
class FabricInterposer {
 public:
  virtual ~FabricInterposer() = default;
  // Charges `bytes` of fabric bandwidth starting at `now`; returns the
  // fabric completion time (the device waits for max(memory, link, fabric)).
  virtual Nanos ChargeDma(Nanos now, uint64_t bytes) = 0;
  // Extra one-way latency added to each DMA operation.
  virtual Nanos DmaExtraLatency() const = 0;
  // Extra latency added to each MMIO operation (round trip for reads).
  virtual Nanos MmioExtraLatency(bool is_read) const = 0;
};

class PcieDevice {
 public:
  PcieDevice(PcieDeviceId id, std::string name, sim::EventLoop& loop,
             cxl::LinkSpec link, PcieTiming timing);
  virtual ~PcieDevice();
  PcieDevice(const PcieDevice&) = delete;
  PcieDevice& operator=(const PcieDevice&) = delete;

  PcieDeviceId id() const { return id_; }
  const std::string& name() const { return name_; }
  sim::EventLoop& loop() { return loop_; }
  const PcieTiming& timing() const { return timing_; }

  // --- Attachment ---
  // Binds the device to `host`'s root complex. Subclasses may spawn their
  // engines from OnAttach. Binding also gives the device its metrics scope:
  // the host's registry under {"device": id}, where it counts pcie.wedges
  // (Wedge() transitions), pcie.dropped_mmio_writes (posted writes absorbed
  // while wedged), pcie.stalled_ops (reads/DMAs that hit wedge_stall),
  // pcie.resets (FLR invocations), pcie.dma_reads / dma_read_bytes and
  // pcie.dma_writes / dma_write_bytes. A device is attached before it can
  // be wedged or reset.
  void AttachTo(cxl::HostAdapter* host);
  void Detach();
  cxl::HostAdapter* attached_host() { return host_; }
  bool attached() const { return host_ != nullptr; }

  // --- Failure injection ---
  bool failed() const { return failed_; }
  void InjectFailure();
  // Revives a fail-stopped device as a replaced/power-cycled card: clears
  // the failure, bumps the generation, and runs the OnReset hook so BAR and
  // queue state come up clean and engine coroutines respawn.
  void Repair();

  // --- Gray failure: wedge (paper §5, partial failures) ---
  // A wedged device is firmware-hung rather than dead: posted MMIO writes
  // are absorbed without ever reaching device logic, and MMIO reads / DMA
  // stall for timing().wedge_stall before failing with kDeadlineExceeded —
  // the caller experiences a timeout, not a crisp error. Distinct from
  // InjectFailure (fail-stop: immediate kUnavailable). Recovery is Reset(),
  // not Repair(); the owning agent's watchdog issues it.
  bool wedged() const { return wedged_; }
  void Wedge();
  // FLR-style function level reset: clears a wedge, bumps the generation
  // (in-flight engine coroutines observe the bump and exit — the "drain"),
  // and re-initializes BAR/queue state via the OnReset hook. Does NOT
  // revive a fail-stopped device (that is Repair's job).
  void Reset();

  // --- MMIO (from the attached host's CPU) ---
  sim::Task<Status> MmioWrite(uint64_t reg, uint64_t value);
  sim::Task<Result<uint64_t>> MmioRead(uint64_t reg);

  // Device generation counter: bumped on attach/detach/failure; lets
  // drivers detect they are talking to a re-bound device.
  uint64_t generation() const { return generation_; }

  // Installed by a switch fabric while the device is bound through it;
  // nullptr for directly attached devices.
  void set_interposer(FabricInterposer* interposer) { interposer_ = interposer; }
  FabricInterposer* interposer() { return interposer_; }

  // Invoked from ~PcieDevice so a registrar holding a raw pointer (e.g. a
  // switch fabric) can drop it; the registrar clears this when it is torn
  // down first, whichever side dies first stays safe.
  void set_destroy_listener(std::function<void(PcieDevice*)> listener) {
    destroy_listener_ = std::move(listener);
  }

 protected:
  // Device logic hooks (untimed; timing charged by the MMIO wrappers).
  virtual void OnMmioWrite(uint64_t reg, uint64_t value) = 0;
  virtual uint64_t OnMmioRead(uint64_t reg) = 0;
  virtual void OnAttach() {}
  virtual void OnDetach() {}
  virtual void OnFailure() {}
  // Re-initialize device state after an FLR (clear rings, respawn engines).
  // Called with the wedge already cleared and the generation already bumped.
  virtual void OnReset() {}

  // The device's metrics scope, valid from the first AttachTo (subclasses
  // look up their handles in OnAttach).
  const obs::Scope& metrics() const { return *metrics_; }
  // Wedge() transitions since the last call (the NIC counts them as wedge
  // episodes at the following reset).
  uint64_t TakeWedges() { return std::exchange(untaken_wedges_, 0); }

  // --- DMA helpers for subclasses (timed) ---
  // Charge = device-link serialization + dma_overhead + memory-side cost
  // (local DRAM or CXL pool via the attached host's adapter).
  sim::Task<Status> DmaRead(uint64_t addr, std::span<std::byte> out);
  sim::Task<Status> DmaWrite(uint64_t addr, std::span<const std::byte> in);

 private:
  // A posted MMIO write between its issue and its delivery.
  struct PostedMmio {
    uint64_t reg;
    uint64_t value;
  };
  // The delivery event of the posted write in `slot`: the device acts on
  // it unless it has detached, failed or wedged meanwhile.
  void DeliverMmioWrite(uint32_t slot);

  PcieDeviceId id_;
  std::string name_;
  sim::EventLoop& loop_;
  cxl::LinkSpec link_;
  PcieTiming timing_;
  cxl::HostAdapter* host_ = nullptr;
  FabricInterposer* interposer_ = nullptr;
  bool failed_ = false;
  bool wedged_ = false;
  bool failed_by_host_crash_ = false;  // host crash (not real fault) failed us
  uint64_t untaken_wedges_ = 0;        // see TakeWedges
  std::function<void(PcieDevice*)> destroy_listener_;
  uint64_t generation_ = 0;
  std::vector<PostedMmio> posted_mmio_;  // slots; free ones are listed below
  std::vector<uint32_t> free_mmio_slots_;
  sim::BandwidthQueue to_host_;    // DMA writes / read completions
  sim::BandwidthQueue from_host_;  // DMA read data fetch direction
  std::optional<obs::Scope> metrics_;
  obs::Counter* wedges_ = nullptr;
  obs::Counter* dropped_mmio_writes_ = nullptr;
  obs::Counter* stalled_ops_ = nullptr;
  obs::Counter* resets_ = nullptr;
  obs::Counter* dma_reads_ = nullptr;
  obs::Counter* dma_read_bytes_ = nullptr;
  obs::Counter* dma_writes_ = nullptr;
  obs::Counter* dma_write_bytes_ = nullptr;
};

}  // namespace cxlpool::pcie

#endif  // SRC_PCIE_DEVICE_H_
