// Extension: the leakage story on the OTHER completion tasks of §3.2.
//
// The paper evaluates link prediction; triple classification and relation
// prediction are the sibling tasks its §3.2 lists. The same reverse-triple
// leakage inflates them too -- this bench shows the drop from FB15k-syn to
// FB15k-237-syn on both tasks.

#include "bench/bench_common.h"
#include "eval/relation_prediction.h"
#include "eval/triple_classification.h"
#include "util/string_util.h"
#include "util/table.h"

namespace kgc::bench {
namespace {

int Run() {
  PrintHeader("Extension: triple classification & relation prediction under "
              "leakage",
              "companion to §3.2's task taxonomy (no paper table; extension)");
  ExperimentContext context = MakeContext();
  const BenchmarkSuite& suite = context.Fb15k();

  const ModelType models[] = {ModelType::kTransE, ModelType::kComplEx,
                              ModelType::kRotatE};

  AsciiTable classification("Triple classification accuracy (balanced)");
  classification.SetHeader({"Model", "FB15k-syn", "FB15k-237-syn"});
  for (ModelType type : models) {
    std::vector<std::string> row = {ModelTypeName(type)};
    for (const Dataset* dataset : {&suite.kg.dataset, &suite.cleaned}) {
      const KgeModel& model = context.GetModel(*dataset, type);
      const TripleClassificationResult result =
          EvaluateTripleClassification(model, *dataset);
      row.push_back(Pct(result.accuracy));
    }
    classification.AddRow(std::move(row));
  }
  classification.Print();

  AsciiTable relation_pred("Relation prediction (rank the relation of each "
                           "test (h, ?, t))");
  relation_pred.SetHeader({"Model", "FMRR", "FH@1", "FMRR'", "FH@1'"});
  for (ModelType type : models) {
    const LinkPredictionMetrics original = EvaluateRelationPrediction(
        context.GetModel(suite.kg.dataset, type), suite.kg.dataset);
    const LinkPredictionMetrics cleaned = EvaluateRelationPrediction(
        context.GetModel(suite.cleaned, type), suite.cleaned);
    relation_pred.AddRow({ModelTypeName(type), Mrr(original.fmrr),
                          Pct(original.fhits1), Mrr(cleaned.fmrr),
                          Pct(cleaned.fhits1)});
  }
  relation_pred.Print();
  std::printf(
      "Columns with ' are on the cleaned dataset. The models that exploit\n"
      "reverse structure (ComplEx, RotatE) lose their premium on both tasks\n"
      "after cleaning; TransE, which never had it, is flat or better --\n"
      "mirroring the link-prediction picture. Both auxiliary tasks are much\n"
      "easier than link prediction (small or well-separated candidate\n"
      "spaces), which is why the paper centres on link prediction.\n");
  return 0;
}

}  // namespace
}  // namespace kgc::bench

int main(int argc, char** argv) {
  return kgc::bench::RunBench(argc, argv, "bench_ext_other_tasks", kgc::bench::Run);
}
