#include "src/workload/mail_corpus.h"

#include <memory>
#include <utility>

#include "src/apps/mail_store.h"
#include "src/apps/standard_modules.h"
#include "src/base/data_object.h"
#include "src/observability/observability.h"
#include "src/robustness/fault_injector.h"
#include "src/robustness/salvage.h"
#include "src/workload/scenario.h"
#include "src/workload/workload.h"

namespace atk {
namespace {

using observability::Counter;
using observability::MetricsRegistry;

// One seeded compound message body, sized like real mail: mostly prose,
// `embed` embedding a table, drawing or raster.
std::unique_ptr<TextData> GenerateMessageDocument(WorkloadRng& rng, bool embed) {
  CompoundDocumentSpec spec;
  spec.paragraphs = rng.IntIn(1, 4);
  spec.tables = 0;
  spec.drawings = 0;
  spec.equations = 0;
  spec.rasters = 0;
  if (embed) {
    switch (rng.Below(3)) {
      case 0:
        spec.tables = 1;
        break;
      case 1:
        spec.drawings = 1;
        break;
      default:
        spec.rasters = 1;
        break;
    }
    spec.equations = rng.Chance(0.3) ? 1 : 0;
  }
  return GenerateCompoundDocument(rng, spec);
}

}  // namespace

MailCorpusResult RunMailCorpus(const MailCorpusSpec& spec) {
  RegisterStandardModules();

  static Counter& salvaged_counter =
      MetricsRegistry::Instance().counter("scenario.mail.salvaged");
  static Counter& roundtrips =
      MetricsRegistry::Instance().counter("scenario.mail.roundtrips");

  MailCorpusResult result;
  MailStore store;
  WorkloadRng rng(spec.seed * 0x9E3779B97F4A7C15ull + 1);
  uint64_t digest = kFnv1aOffset;

  for (int i = 0; i < spec.messages; ++i) {
    ATK_TRACE_SPAN("scenario.mail.roundtrip");
    bool embed = rng.Chance(spec.embed_fraction);
    bool corrupt = rng.Chance(spec.corrupt_fraction);
    std::unique_ptr<TextData> doc = GenerateMessageDocument(rng, embed);
    std::string wire = WriteDocument(*doc);
    ++result.messages;
    result.bytes_written += static_cast<int64_t>(wire.size());

    std::string body = wire;
    if (corrupt) {
      // A damaged message must still open after salvage, like a mailbox
      // recovered from a bad disk.
      FaultPlan plan = FaultPlan::FromSeed(spec.seed + static_cast<uint64_t>(i),
                                          body.size(), spec.stream_faults);
      FaultInjector injector(plan);
      std::string corrupted = injector.Corrupt(body);
      SalvageReport report;
      DataStreamSalvager salvager;
      body = salvager.Salvage(corrupted, &report);
      ++result.salvaged;
      salvaged_counter.Add(1);
    }

    // Read → re-write → re-read: the reader must reconstruct a document
    // whose serialization is stable.
    ReadContext context;
    std::unique_ptr<DataObject> parsed = ReadDocument(body, &context);
    if (parsed == nullptr) {
      ++result.read_failures;
      continue;
    }
    std::string rewritten = WriteDocument(*parsed);
    if (!corrupt && rewritten != wire) {
      ++result.clean_roundtrip_mismatches;
    }
    ReadContext recheck;
    std::unique_ptr<DataObject> reread = ReadDocument(rewritten, &recheck);
    if (reread == nullptr) {
      ++result.read_failures;
      continue;
    }
    roundtrips.Add(1);

    MailMessage message;
    message.from = "corpus-" + std::to_string(spec.seed);
    message.to = "reader";
    message.subject = "message " + std::to_string(i);
    message.body = rewritten;
    std::string folder = "folder-" + std::to_string(i % std::max(1, spec.folders));
    if (store.Deliver(folder, std::move(message))) {
      ++result.delivered;
    }
    digest = Fnv1a64(rewritten, digest);
  }

  result.corpus_digest = digest;
  return result;
}

}  // namespace atk
