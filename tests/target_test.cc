#include <gtest/gtest.h>

#include "src/frontend/parser.h"
#include "src/gauntlet/campaign.h"
#include "src/runtime/parallel_campaign.h"
#include "src/target/target.h"
#include "src/testgen/testgen.h"
#include "src/typecheck/typecheck.h"

namespace gauntlet {
namespace {

constexpr const char* kPipelineProgram = R"(
header H { bit<8> a; bit<8> b; }
struct Hdr { H h; }
parser p(out Hdr hdr) {
  state start {
    pkt.extract(hdr.h);
    transition accept;
  }
}
control ig(inout Hdr hdr) {
  action set_b(bit<8> v) { hdr.h.b = v; }
  table t {
    key = { hdr.h.a : exact; }
    actions = { set_b; NoAction; }
    default_action = NoAction();
  }
  apply { t.apply(); }
}
control dp(in Hdr hdr) {
  apply { pkt.emit(hdr.h); }
}
package main { parser = p; ingress = ig; deparser = dp; }
)";

BitString MakePacket(std::initializer_list<uint8_t> bytes) {
  BitString packet;
  for (const uint8_t byte : bytes) {
    packet.AppendBits(BitValue(8, byte));
  }
  return packet;
}

std::unique_ptr<Executable> Compile(const char* target, const Program& program,
                                    const BugConfig& bugs = BugConfig::None()) {
  return TargetRegistry::Get(target).Compile(program, bugs);
}

TEST(BitStringTest, AppendAndRead) {
  BitString bits;
  bits.AppendBits(BitValue(8, 0xab));
  bits.AppendBits(BitValue(4, 0x5));
  EXPECT_EQ(bits.size(), 12u);
  EXPECT_EQ(bits.ReadBits(0, 8)->bits(), 0xabu);
  EXPECT_EQ(bits.ReadBits(8, 4)->bits(), 0x5u);
  EXPECT_EQ(bits.ReadBits(4, 8)->bits(), 0xb5u);
  EXPECT_FALSE(bits.ReadBits(8, 8).has_value());
}

TEST(BitStringTest, HexRendering) {
  BitString bits;
  bits.AppendBits(BitValue(16, 0xdead));
  EXPECT_EQ(bits.ToHex(), "dead");
  BitString odd;
  odd.AppendBits(BitValue(6, 0b101010));
  EXPECT_EQ(odd.ToHex(), "a8");  // 1010 10(00 pad)
}

TEST(ConcreteInterpreterTest, PassthroughOnTableMiss) {
  auto program = Parser::ParseString(kPipelineProgram);
  TypeCheck(*program);
  ConcreteInterpreter interpreter(*program);
  const PacketResult result = interpreter.RunPacket(MakePacket({0x11, 0x22}), {});
  EXPECT_FALSE(result.dropped);
  EXPECT_EQ(result.output, MakePacket({0x11, 0x22}));
}

TEST(ConcreteInterpreterTest, TableHitRunsActionWithData) {
  auto program = Parser::ParseString(kPipelineProgram);
  TypeCheck(*program);
  ConcreteInterpreter interpreter(*program);
  TableConfig tables;
  tables["t"].push_back(TableEntry{{BitValue(8, 0x11)}, "set_b", {BitValue(8, 0x99)}});
  const PacketResult hit = interpreter.RunPacket(MakePacket({0x11, 0x22}), tables);
  EXPECT_EQ(hit.output, MakePacket({0x11, 0x99}));
  // A different key misses and leaves the packet unchanged.
  const PacketResult miss = interpreter.RunPacket(MakePacket({0x44, 0x22}), tables);
  EXPECT_EQ(miss.output, MakePacket({0x44, 0x22}));
}

TEST(ConcreteInterpreterTest, ShortPacketIsDropped) {
  auto program = Parser::ParseString(kPipelineProgram);
  TypeCheck(*program);
  ConcreteInterpreter interpreter(*program);
  const PacketResult result = interpreter.RunPacket(MakePacket({0x11}), {});
  EXPECT_TRUE(result.dropped);
}

TEST(ConcreteInterpreterTest, ParserRejectDropsPacket) {
  auto program = Parser::ParseString(R"(
header H { bit<8> a; }
struct Hdr { H h; }
parser p(out Hdr hdr) {
  state start {
    pkt.extract(hdr.h);
    transition select(hdr.h.a) {
      8w255: reject;
      default: accept;
    }
  }
}
control ig(inout Hdr hdr) {
  apply { }
}
control dp(in Hdr hdr) {
  apply { pkt.emit(hdr.h); }
}
package main { parser = p; ingress = ig; deparser = dp; }
)");
  TypeCheck(*program);
  ConcreteInterpreter interpreter(*program);
  EXPECT_TRUE(interpreter.RunPacket(MakePacket({0xff}), {}).dropped);
  EXPECT_FALSE(interpreter.RunPacket(MakePacket({0x01}), {}).dropped);
}

TEST(ConcreteInterpreterTest, InvalidHeaderNotEmitted) {
  auto program = Parser::ParseString(R"(
header H { bit<8> a; }
struct Hdr { H h; H g; }
parser p(out Hdr hdr) {
  state start {
    pkt.extract(hdr.h);
    transition accept;
  }
}
control ig(inout Hdr hdr) {
  apply {
    if (hdr.h.a == 8w1) {
      hdr.g.setValid();
      hdr.g.a = 8w77;
    }
  }
}
control dp(in Hdr hdr) {
  apply {
    pkt.emit(hdr.h);
    pkt.emit(hdr.g);
  }
}
package main { parser = p; ingress = ig; deparser = dp; }
)");
  TypeCheck(*program);
  ConcreteInterpreter interpreter(*program);
  // g invalid: only h emitted.
  EXPECT_EQ(interpreter.RunPacket(MakePacket({0x05}), {}).output, MakePacket({0x05}));
  // g validated: both emitted.
  EXPECT_EQ(interpreter.RunPacket(MakePacket({0x01}), {}).output, MakePacket({0x01, 77}));
}

TEST(ConcreteInterpreterTest, ExitStopsControl) {
  auto program = Parser::ParseString(R"(
header H { bit<8> a; }
struct Hdr { H h; }
parser p(out Hdr hdr) {
  state start {
    pkt.extract(hdr.h);
    transition accept;
  }
}
control ig(inout Hdr hdr) {
  apply {
    if (hdr.h.a == 8w1) {
      exit;
    }
    hdr.h.a = 8w9;
  }
}
control dp(in Hdr hdr) {
  apply { pkt.emit(hdr.h); }
}
package main { parser = p; ingress = ig; deparser = dp; }
)");
  TypeCheck(*program);
  ConcreteInterpreter interpreter(*program);
  EXPECT_EQ(interpreter.RunPacket(MakePacket({0x01}), {}).output, MakePacket({0x01}));
  EXPECT_EQ(interpreter.RunPacket(MakePacket({0x02}), {}).output, MakePacket({0x09}));
}

TEST(ConcreteInterpreterTest, CopyInCopyOutWithExit) {
  // Fig. 5f concretely: copy-out must happen despite exit.
  auto program = Parser::ParseString(R"(
header Eth { bit<16> eth_type; }
struct Hdr { Eth eth; }
parser p(out Hdr hdr) {
  state start {
    pkt.extract(hdr.eth);
    transition accept;
  }
}
control ig(inout Hdr hdr) {
  action a(inout bit<16> val) {
    val = 16w3;
    exit;
  }
  apply {
    a(hdr.eth.eth_type);
    hdr.eth.eth_type = 16w99;
  }
}
control dp(in Hdr hdr) {
  apply { pkt.emit(hdr.eth); }
}
package main { parser = p; ingress = ig; deparser = dp; }
)");
  TypeCheck(*program);
  ConcreteInterpreter interpreter(*program);
  const PacketResult result = interpreter.RunPacket(MakePacket({0xaa, 0xbb}), {});
  EXPECT_EQ(result.output, MakePacket({0x00, 0x03}));
}

// ---------------------------------------------------------------------------
// Registry conformance suite: every registered back end must satisfy the
// Target contract — clean compiles run packets, clean behavior matches the
// source-level oracle (quirk honoring: no quirks without a seeded fault),
// and a campaign pointed only at this target finds its seeded faults.
// ---------------------------------------------------------------------------

class TargetConformance : public ::testing::TestWithParam<std::string> {};

TEST_P(TargetConformance, RegistryMetadataIsConsistent) {
  const Target& target = TargetRegistry::Get(GetParam());
  EXPECT_EQ(target.name(), GetParam());
  EXPECT_STRNE(target.component(), "");
  EXPECT_TRUE(IsBackEndLocation(target.location()));
  EXPECT_EQ(TargetRegistry::ForLocation(target.location()), &target);
  // Every back end contributes at least one semantic fault to the
  // catalogue — otherwise packet replay has nothing to find there.
  bool has_semantic = false;
  for (const BugId bug : target.CatalogueFaults()) {
    has_semantic |= GetBugInfo(bug).kind == BugKind::kSemantic;
  }
  EXPECT_TRUE(has_semantic);
}

TEST_P(TargetConformance, CleanCompileAndRun) {
  auto program = Parser::ParseString(kPipelineProgram);
  const auto executable = Compile(GetParam().c_str(), *program);
  const PacketResult result = executable->Run(MakePacket({0x11, 0x22}), {});
  EXPECT_EQ(result.output, MakePacket({0x11, 0x22}));
}

TEST_P(TargetConformance, CleanCompileMatchesSourceOracle) {
  auto program = Parser::ParseString(kPipelineProgram);
  TypeCheck(*program);
  ConcreteInterpreter source(*program);
  const auto executable = Compile(GetParam().c_str(), *program);
  TableConfig tables;
  tables["t"].push_back(TableEntry{{BitValue(8, 7)}, "set_b", {BitValue(8, 0x42)}});
  for (uint8_t a = 0; a < 16; ++a) {
    const BitString packet = MakePacket({a, 0xee});
    EXPECT_EQ(source.RunPacket(packet, tables), executable->Run(packet, tables));
  }
}

TEST_P(TargetConformance, CleanCompilePassesGeneratedTests) {
  auto program = Parser::ParseString(kPipelineProgram);
  TypeCheck(*program);
  const std::vector<PacketTest> tests = TestCaseGenerator().Generate(*program);
  ASSERT_FALSE(tests.empty());
  const auto executable = Compile(GetParam().c_str(), *program);
  EXPECT_TRUE(RunPacketTests(*executable, tests).empty());
}

TEST_P(TargetConformance, SemanticFaultsCompileIntoRunnableQuirkyArtifacts) {
  // Semantic faults never abort compilation — they silently change the
  // artifact (the catalogue's crash/semantic split).
  auto program = Parser::ParseString(kPipelineProgram);
  const Target& target = TargetRegistry::Get(GetParam());
  for (const BugId bug : target.CatalogueFaults()) {
    if (GetBugInfo(bug).kind != BugKind::kSemantic) {
      continue;
    }
    BugConfig bugs;
    bugs.Enable(bug);
    std::unique_ptr<Executable> executable;
    ASSERT_NO_THROW(executable = target.Compile(*program, bugs)) << BugIdToString(bug);
    EXPECT_NO_THROW(executable->Run(MakePacket({0x11, 0x22}), {})) << BugIdToString(bug);
  }
}

TEST_P(TargetConformance, CampaignAgainstThisTargetFindsItsSeededFaults) {
  // Fault-detection smoke: a campaign replaying only on this back end, with
  // all of its faults seeded, must find at least one of them — and must
  // never blame another back end.
  const Target& target = TargetRegistry::Get(GetParam());
  BugConfig bugs;
  for (const BugId bug : target.CatalogueFaults()) {
    bugs.Enable(bug);
  }
  ParallelCampaignOptions options;
  options.campaign.seed = 99;
  options.campaign.num_programs = 40;
  options.campaign.targets = {GetParam()};
  options.campaign.testgen.max_tests = 6;
  options.campaign.testgen.max_decisions = 5;
  const CampaignReport report = ParallelCampaign(options).Run(bugs);
  EXPECT_FALSE(report.distinct_bugs.empty())
      << "no seeded " << GetParam() << " fault found in 40 random programs";
  for (const BugId bug : report.distinct_bugs) {
    EXPECT_EQ(GetBugInfo(bug).location, target.location()) << BugIdToString(bug);
  }
}

INSTANTIATE_TEST_SUITE_P(Registry, TargetConformance,
                         ::testing::ValuesIn(TargetRegistry::Names()),
                         [](const ::testing::TestParamInfo<std::string>& info) {
                           return info.param;
                         });

TEST(TargetRegistryTest, AtLeastThreeBackEndsRegistered) {
  const std::vector<std::string> names = TargetRegistry::Names();
  EXPECT_GE(names.size(), 3u);
  EXPECT_NE(TargetRegistry::Find("bmv2"), nullptr);
  EXPECT_NE(TargetRegistry::Find("tofino"), nullptr);
  EXPECT_NE(TargetRegistry::Find("ebpf"), nullptr);
}

TEST(TargetRegistryTest, UnknownTargetFailsLoudly) {
  EXPECT_EQ(TargetRegistry::Find("hexagon"), nullptr);
  EXPECT_THROW(TargetRegistry::Get("hexagon"), CompileError);
}

// ---------------------------------------------------------------------------
// Back-end-specific quirk and resource-model tests.
// ---------------------------------------------------------------------------

TEST(Bmv2TargetTest, InlinerSkipBugCrashesBackEnd) {
  auto program = Parser::ParseString(R"(
header H { bit<8> a; }
struct Hdr { H h; }
bit<8> helper(in bit<8> v) {
  return v + 8w1;
}
parser p(out Hdr hdr) {
  state start {
    pkt.extract(hdr.h);
    transition accept;
  }
}
control ig(inout Hdr hdr) {
  apply {
    if (hdr.h.a == 8w0) {
      hdr.h.a = helper(hdr.h.a);
    }
  }
}
control dp(in Hdr hdr) {
  apply { pkt.emit(hdr.h); }
}
package main { parser = p; ingress = ig; deparser = dp; }
)");
  BugConfig bugs;
  bugs.Enable(BugId::kInlinerSkipsNestedCall);
  EXPECT_THROW(Compile("bmv2", *program, bugs), CompilerBugError);
}

TEST(Bmv2TargetTest, MissRunsFirstActionQuirk) {
  auto program = Parser::ParseString(kPipelineProgram);
  BugConfig bugs;
  bugs.Enable(BugId::kBmv2TableMissRunsFirstAction);
  const auto buggy = Compile("bmv2", *program, bugs);
  // Miss: set_b runs with zero data instead of NoAction.
  const PacketResult result = buggy->Run(MakePacket({0x11, 0x22}), {});
  EXPECT_EQ(result.output, MakePacket({0x11, 0x00}));
}

TEST(Bmv2TargetTest, EmitIgnoresValidityQuirk) {
  auto program = Parser::ParseString(R"(
header H { bit<8> a; }
struct Hdr { H h; H g; }
parser p(out Hdr hdr) {
  state start {
    pkt.extract(hdr.h);
    transition accept;
  }
}
control ig(inout Hdr hdr) {
  apply { }
}
control dp(in Hdr hdr) {
  apply {
    pkt.emit(hdr.h);
    pkt.emit(hdr.g);
  }
}
package main { parser = p; ingress = ig; deparser = dp; }
)");
  BugConfig bugs;
  bugs.Enable(BugId::kBmv2EmitIgnoresValidity);
  const auto buggy = Compile("bmv2", *program, bugs);
  // The invalid header g is wrongly emitted (as zeros).
  EXPECT_EQ(buggy->Run(MakePacket({0x55}), {}).output, MakePacket({0x55, 0x00}));
}

TEST(TofinoTargetTest, WideArithCrash) {
  auto program = Parser::ParseString(R"(
header H { bit<48> a; bit<48> b; }
struct Hdr { H h; }
parser p(out Hdr hdr) {
  state start {
    pkt.extract(hdr.h);
    transition accept;
  }
}
control ig(inout Hdr hdr) {
  apply {
    hdr.h.a = hdr.h.a * hdr.h.b;
  }
}
control dp(in Hdr hdr) {
  apply { pkt.emit(hdr.h); }
}
package main { parser = p; ingress = ig; deparser = dp; }
)");
  BugConfig bugs;
  bugs.Enable(BugId::kTofinoCrashOnWideArith);
  EXPECT_THROW(Compile("tofino", *program, bugs), CompilerBugError);
  // The open-source reference back end handles it fine.
  EXPECT_NO_THROW(Compile("bmv2", *program, bugs));
}

TEST(TofinoTargetTest, NarrowWideSemanticBug) {
  auto program = Parser::ParseString(R"(
header H { bit<48> a; bit<48> b; }
struct Hdr { H h; }
parser p(out Hdr hdr) {
  state start {
    pkt.extract(hdr.h);
    transition accept;
  }
}
control ig(inout Hdr hdr) {
  apply {
    hdr.h.a = hdr.h.a + hdr.h.b;
  }
}
control dp(in Hdr hdr) {
  apply { pkt.emit(hdr.h); }
}
package main { parser = p; ingress = ig; deparser = dp; }
)");
  BugConfig bugs;
  bugs.Enable(BugId::kTofinoPhvNarrowWide);
  const auto buggy = Compile("tofino", *program, bugs);
  const auto clean = Compile("tofino", *program);
  // A carry into the upper 16 bits is lost by the 32-bit container fault.
  BitString packet;
  packet.AppendBits(BitValue(48, 0xffffffffull));  // a
  packet.AppendBits(BitValue(48, 1));              // b
  const PacketResult clean_result = clean->Run(packet, {});
  const PacketResult buggy_result = buggy->Run(packet, {});
  EXPECT_NE(clean_result, buggy_result);
  EXPECT_EQ(clean_result.output.ReadBits(0, 48)->bits(), 0x100000000ull);
  EXPECT_EQ(buggy_result.output.ReadBits(0, 48)->bits(), 0ull);
}

TEST(TofinoTargetTest, ManyTablesCrash) {
  std::string source = R"(
header H { bit<8> a; }
struct Hdr { H h; }
parser p(out Hdr hdr) {
  state start {
    pkt.extract(hdr.h);
    transition accept;
  }
}
control ig(inout Hdr hdr) {
)";
  for (int i = 0; i < 6; ++i) {
    source += "  table t" + std::to_string(i) + R"( {
    key = { hdr.h.a : exact; }
    actions = { NoAction; }
    default_action = NoAction();
  }
)";
  }
  source += "  apply {\n";
  for (int i = 0; i < 6; ++i) {
    source += "    t" + std::to_string(i) + ".apply();\n";
  }
  source += R"(  }
}
control dp(in Hdr hdr) {
  apply { pkt.emit(hdr.h); }
}
package main { parser = p; ingress = ig; deparser = dp; }
)";
  auto program = Parser::ParseString(source);
  BugConfig bugs;
  bugs.Enable(BugId::kTofinoCrashManyTables);
  EXPECT_THROW(Compile("tofino", *program, bugs), CompilerBugError);
}

TEST(TofinoTargetTest, DefaultSkippedSemanticBug) {
  auto program = Parser::ParseString(R"(
header H { bit<8> a; bit<8> b; }
struct Hdr { H h; }
parser p(out Hdr hdr) {
  state start {
    pkt.extract(hdr.h);
    transition accept;
  }
}
control ig(inout Hdr hdr) {
  action mark() { hdr.h.b = 8w0xee; }
  action set_b(bit<8> v) { hdr.h.b = v; }
  table t {
    key = { hdr.h.a : exact; }
    actions = { set_b; mark; }
    default_action = mark();
  }
  apply { t.apply(); }
}
control dp(in Hdr hdr) {
  apply { pkt.emit(hdr.h); }
}
package main { parser = p; ingress = ig; deparser = dp; }
)");
  BugConfig bugs;
  bugs.Enable(BugId::kTofinoTableDefaultSkipped);
  const auto buggy = Compile("tofino", *program, bugs);
  // On a miss the default action `mark` should set b to 0xee; the fault
  // replaced it with a no-op.
  const PacketResult result = buggy->Run(MakePacket({0x01, 0x02}), {});
  EXPECT_EQ(result.output, MakePacket({0x01, 0x02}));
  const auto clean = Compile("tofino", *program);
  EXPECT_EQ(clean->Run(MakePacket({0x01, 0x02}), {}).output, MakePacket({0x01, 0xee}));
}

TEST(EbpfTargetTest, ParserExtractReversedQuirk) {
  // The ROADMAP parser fault model: the buggy parser generator extracts a
  // header's fields in reverse order, so the wire bytes land swapped.
  auto program = Parser::ParseString(kPipelineProgram);
  BugConfig bugs;
  bugs.Enable(BugId::kEbpfParserExtractReversed);
  const auto buggy = Compile("ebpf", *program, bugs);
  // Wire: a=0x11 b=0x22. Reversed extraction loads b first: a=0x22, b=0x11.
  EXPECT_EQ(buggy->Run(MakePacket({0x11, 0x22}), {}).output, MakePacket({0x22, 0x11}));
  const auto clean = Compile("ebpf", *program);
  EXPECT_EQ(clean->Run(MakePacket({0x11, 0x22}), {}).output, MakePacket({0x11, 0x22}));
}

TEST(EbpfTargetTest, MapMissDropsPacketQuirk) {
  auto program = Parser::ParseString(kPipelineProgram);
  BugConfig bugs;
  bugs.Enable(BugId::kEbpfMapMissDropsPacket);
  const auto buggy = Compile("ebpf", *program, bugs);
  TableConfig tables;
  tables["t"].push_back(TableEntry{{BitValue(8, 0x11)}, "set_b", {BitValue(8, 0x99)}});
  // Hit: unaffected.
  EXPECT_EQ(buggy->Run(MakePacket({0x11, 0x22}), tables).output, MakePacket({0x11, 0x99}));
  // Miss: XDP_ABORTED — the packet disappears instead of running NoAction.
  EXPECT_TRUE(buggy->Run(MakePacket({0x44, 0x22}), tables).dropped);
  const auto clean = Compile("ebpf", *program);
  EXPECT_FALSE(clean->Run(MakePacket({0x44, 0x22}), tables).dropped);
}

TEST(EbpfTargetTest, StackOverflowCrash) {
  // 6 * 64 = 384 header bits > the modelled 320-bit stack frame.
  auto program = Parser::ParseString(R"(
header H { bit<64> a; bit<64> b; bit<64> c; }
header G { bit<64> a; bit<64> b; bit<64> c; }
struct Hdr { H h; G g; }
parser p(out Hdr hdr) {
  state start {
    pkt.extract(hdr.h);
    transition accept;
  }
}
control ig(inout Hdr hdr) {
  apply { }
}
control dp(in Hdr hdr) {
  apply { pkt.emit(hdr.h); }
}
package main { parser = p; ingress = ig; deparser = dp; }
)");
  BugConfig bugs;
  bugs.Enable(BugId::kEbpfCrashStackOverflow);
  EXPECT_THROW(Compile("ebpf", *program, bugs), CompilerBugError);
  // The other back ends take the same program fine.
  EXPECT_NO_THROW(Compile("bmv2", *program, bugs));
  EXPECT_NO_THROW(Compile("tofino", *program, bugs));
  // And the clean eBPF back end has no such limit.
  EXPECT_NO_THROW(Compile("ebpf", *program));
}

TEST(StfHarnessTest, PassAndMismatchReporting) {
  auto program = Parser::ParseString(kPipelineProgram);
  const auto clean = Compile("bmv2", *program);

  PacketTest test;
  test.name = "passthrough";
  test.input = MakePacket({0x0a, 0x0b});
  test.expected.output = MakePacket({0x0a, 0x0b});
  EXPECT_TRUE(RunPacketTest(*clean, test).passed);

  PacketTest wrong = std::move(test);
  wrong.expected.output = MakePacket({0x0a, 0xff});
  const PacketTestOutcome outcome = RunPacketTest(*clean, wrong);
  EXPECT_FALSE(outcome.passed);
  EXPECT_NE(outcome.detail.find("payload mismatch"), std::string::npos);
}

}  // namespace
}  // namespace gauntlet
