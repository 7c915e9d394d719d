#include "perfbench/src/rig.h"

#include <sys/resource.h>

#include <cstdlib>
#include <iostream>

#include "src/gen/docgen.h"

namespace perfbench {
namespace {

[[noreturn]] void Die(const std::string& what, const cmif::Status& status) {
  std::cerr << "perfbench: " << what << ": " << status << "\n";
  std::exit(1);
}

// The generated authoring document: fig17's generator settings and seed
// (120 leaves, lower-bound arcs only, so every retune stays feasible and
// incremental). It is the same for every workload seed — its compile cost
// would otherwise vary with the seed's tree shape; the seed drives the
// edits made to it.
cmif::GenOptions AuthorDocOptions() {
  cmif::GenOptions options;
  options.target_leaves = 120;
  options.max_depth = 5;
  options.channels = 4;  // eight do not all fit the profiles' screen regions
  options.arcs_per_composite = 1.5;
  options.may_fraction = 0.25;
  options.tight_windows = false;
  options.seed = 17;
  return options;
}

}  // namespace

Rig::Rig(std::uint64_t seed) {
  auto corpus = api::BuildNewsCorpus(static_cast<int>(kNewsDocs), kNewsMaxStories, seed);
  if (!corpus.ok()) {
    Die("building the news corpus", corpus.status());
  }
  corpus_ = std::move(*corpus);
  auto authored = cmif::GenerateRandomDocument(AuthorDocOptions());
  if (!authored.ok()) {
    Die("generating the authoring document", authored.status());
  }
  if (cmif::Status added = corpus_->AddDocument("authored", std::move(authored->document),
                                                authored->store, cmif::BlockStore());
      !added.ok()) {
    Die("adding the authoring document", added);
  }

  api::ServeOptions serve_options;
  serve_options.threads = kServerWorkers;
  loop_ = std::make_unique<api::ServeLoop>(*corpus_, serve_options);
  api::NetServerOptions server_options;
  server_options.workers = kServerWorkers;
  server_ = std::make_unique<api::NetServer>(*loop_, server_options);
  if (cmif::Status started = server_->Start(); !started.ok()) {
    Die("starting the server", started);
  }

  // Warm-up: one request per news key compiles and caches it.
  api::NetClientOptions client_options;
  client_options.port = server_->port();
  api::NetClient client(client_options);
  for (std::size_t slot = 0; slot < kNewsDocs; ++slot) {
    for (std::size_t profile = 0; profile < profiles().size(); ++profile) {
      auto response = client.Present(RequestFor({slot, profile}));
      if (!response.ok()) {
        Die("warm-up request", response.status());
      }
      if (response->outcome != cmif::ServeOutcome::kHealthy) {
        Die("warm-up request", response->error);
      }
    }
  }
}

Rig::~Rig() { server_->Stop(); }

api::PresentRequest Rig::RequestFor(const ViewKey& key) const {
  api::PresentRequest request;
  request.document = corpus_->document(key.slot).name;
  request.profile = loop_->options().profiles[key.profile].name;
  return request;
}

GroundTruth CompileInProcess(api::ServeCorpus& corpus, const cmif::Document& document,
                             const cmif::SystemProfile& profile) {
  api::PipelineOptions options;
  options.profile = profile;
  auto report = corpus.store().WithRead([&](const cmif::DescriptorStore& store) {
    return corpus.blocks().WithRead([&](const cmif::BlockStore& blocks) {
      return api::Compile(document, store, blocks, options);
    });
  });
  if (!report.ok()) {
    Die("in-process compile", report.status());
  }
  api::CompiledPresentation compiled;
  compiled.map = report->presentation_map;
  compiled.filter = report->filter;
  compiled.schedule = report->schedule;
  GroundTruth truth;
  truth.expected.body = api::SerializePresentation(compiled);
  truth.expected.hash = api::PresentationHash(compiled);
  truth.report = std::move(*report);
  return truth;
}

std::map<ViewKey, Expected> ExpectedNews(Rig& rig) {
  std::map<ViewKey, Expected> expected;
  for (std::size_t slot = 0; slot < kNewsDocs; ++slot) {
    for (std::size_t profile = 0; profile < rig.profiles().size(); ++profile) {
      expected[{slot, profile}] = CompileInProcess(rig.corpus(), rig.corpus().document(slot).document,
                                                   rig.profiles()[profile])
                                      .expected;
    }
  }
  return expected;
}

double PeakRssMb() {
  struct rusage usage;
  if (getrusage(RUSAGE_SELF, &usage) != 0) {
    return 0;
  }
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

}  // namespace perfbench
