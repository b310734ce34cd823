// Messages-style mail corpus scenario (DESIGN.md §10).
//
// The Andrew Message System moved compound documents through mail exactly as
// they were edited (§1 of the paper).  This scenario cycles a seeded corpus
// of generated compound documents through the whole persistence pipeline —
// write → (optional corruption + salvage) → read → re-write → re-read — so
// one run stresses writer chunking, the zero-copy reader, embedded-object
// decode, and the salvager together.  Clean messages must round-trip
// byte-identically; corrupted ones must still parse after salvage.  Surviving messages are delivered into a MailStore, holding the
// corpus to the 7-bit mailability contract.
//
// Determinism: the corpus digest is a pure function of the spec — the same
// seed always yields the same bytes.

#ifndef ATK_SRC_WORKLOAD_MAIL_CORPUS_H_
#define ATK_SRC_WORKLOAD_MAIL_CORPUS_H_

#include <cstdint>
#include <string>

namespace atk {

struct MailCorpusSpec {
  uint64_t seed = 1;
  int messages = 32;
  int folders = 4;
  double embed_fraction = 0.5;    // Fraction embedding tables/drawings/rasters.
  double corrupt_fraction = 0.0;  // Fraction run through corrupt + salvage.
  int stream_faults = 2;          // Faults injected per corrupted message.
};

struct MailCorpusResult {
  int messages = 0;             // Messages generated.
  int delivered = 0;            // Accepted by MailStore::Deliver.
  int salvaged = 0;             // Messages that went through the salvager.
  int64_t bytes_written = 0;    // Serialized bytes across first writes.
  int clean_roundtrip_mismatches = 0;  // Clean messages whose re-write differed.
  int read_failures = 0;        // Messages whose (salvaged) body failed to parse.
  // Order-sensitive FNV-1a chain over every message's final serialized body.
  uint64_t corpus_digest = 0;
};

MailCorpusResult RunMailCorpus(const MailCorpusSpec& spec);

}  // namespace atk

#endif  // ATK_SRC_WORKLOAD_MAIL_CORPUS_H_
