#include "net/mailbox.hpp"

#include "net/node.hpp"
#include "sim/annotations.hpp"

#include <utility>

namespace qoesim::net {

void MailboxInbox::admit(Time when, std::uint64_t seq, Packet&& p) {
  const bool was_idle = ring_.empty();
  ring_.push(Entry{when, seq, std::move(p)});
  if (was_idle) arm(when, seq);
}

void MailboxInbox::arm(Time when, std::uint64_t seq) {
  // Always a fresh schedule at the entry's reserved seq (the pooled
  // re-arm idiom shared with Link::arm_delivery); the handle is not kept
  // because the event is never moved or cancelled.
  sim_.scheduler().schedule_at_seq(when, seq, [this] {
    sim_.shard().assert_held();  // event fires inside the owning epoch
    deliver_front();
  });
}

QOESIM_HOT void MailboxInbox::deliver_front() {
  Packet p = std::move(ring_.front().packet);
  ring_.pop();
  dest_.receive(std::move(p));
  if (!ring_.empty()) {
    const Entry& next = ring_.front();
    arm(next.when, next.seq);
  }
}

}  // namespace qoesim::net
