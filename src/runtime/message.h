#ifndef CEP2ASP_RUNTIME_MESSAGE_H_
#define CEP2ASP_RUNTIME_MESSAGE_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "event/event.h"

namespace cep2asp {

/// Kind of element flowing over an inter-thread edge.
enum class MessageKind : uint8_t { kTuple, kWatermark, kEnd };

/// One element flowing over an inter-thread edge.
struct Message {
  MessageKind kind = MessageKind::kTuple;
  int port = 0;
  /// Physical-channel index at the consumer: identifies the (in-edge,
  /// producer subtask) pair this message travelled on, dense in
  /// [0, physical_fan_in). Watermarks are aligned (min) and end-of-stream
  /// is counted per slot, not per port, because one port may merge several
  /// producer subtasks under keyed data parallelism. With parallelism 1
  /// everywhere slots coincide with ports (one edge per port, E301/E302).
  int slot = 0;
  Tuple tuple;
  Timestamp watermark = kMinTimestamp;

  static Message Data(int port, Tuple tuple, int slot = 0) {
    Message msg;
    msg.kind = MessageKind::kTuple;
    msg.port = port;
    msg.slot = slot;
    msg.tuple = std::move(tuple);
    return msg;
  }

  static Message Control(MessageKind kind, int port, Timestamp watermark,
                         int slot = 0) {
    Message msg;
    msg.kind = kind;
    msg.port = port;
    msg.slot = slot;
    msg.watermark = watermark;
    return msg;
  }
};

/// A micro-batch of messages: the unit of transfer over a Channel. Callers
/// reserve `batch_size` up front and reuse the vector after every push, so
/// the steady state allocates nothing.
///
/// The header deduplicates per-message routing: a producer whose batch is
/// homogeneous (every message bound for the same consumer input port and
/// physical slot — true of every RoutingCollector target buffer, control
/// messages included) sets `hdr_valid` once and skips stamping the
/// individual messages; the channel stamps them from the header at the
/// push boundary, because ring storage is flat Messages and pop boundaries
/// do not align with push boundaries (the header itself cannot survive the
/// channel). Batches without a valid header carry per-message port/slot
/// exactly as before.
struct MessageBatch : std::vector<Message> {
  using std::vector<Message>::vector;

  int hdr_port = 0;
  int hdr_slot = 0;
  bool hdr_valid = false;
};

}  // namespace cep2asp

#endif  // CEP2ASP_RUNTIME_MESSAGE_H_
