#include "util/sha256.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "util/hex.hpp"

namespace cn {
namespace {

std::string digest_hex(const Sha256Digest& d) {
  return hex_encode(std::span<const std::uint8_t>(d.data(), d.size()));
}

// FIPS 180-4 / NIST test vectors.
TEST(Sha256, EmptyString) {
  EXPECT_EQ(digest_hex(sha256("")),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
}

TEST(Sha256, Abc) {
  EXPECT_EQ(digest_hex(sha256("abc")),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256, TwoBlockMessage) {
  EXPECT_EQ(digest_hex(sha256(
                "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq")),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256, MillionAs) {
  Sha256 h;
  const std::string chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) h.update(chunk);
  EXPECT_EQ(digest_hex(h.finalize()),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256, IncrementalMatchesOneShot) {
  const std::string msg = "the quick brown fox jumps over the lazy dog";
  for (std::size_t split = 0; split <= msg.size(); ++split) {
    Sha256 h;
    h.update(std::string_view(msg).substr(0, split));
    h.update(std::string_view(msg).substr(split));
    EXPECT_EQ(h.finalize(), sha256(msg)) << "split at " << split;
  }
}

TEST(Sha256, ResetAllowsReuse) {
  Sha256 h;
  h.update("garbage");
  (void)h.finalize();
  h.reset();
  h.update("abc");
  EXPECT_EQ(h.finalize(), sha256("abc"));
}

TEST(Sha256, ExactBlockBoundary) {
  // 64-byte message exercises the no-buffer fast path + padding block.
  const std::string msg(64, 'x');
  Sha256 h;
  h.update(msg);
  EXPECT_EQ(digest_hex(h.finalize()),
            "7ce100971f64e7001e8fe5a51973ecdfe1ced42befe7ee8d5fd6219506b5393c");
}

// SHA-256 of the first n bytes of pattern() (byte i is i * 37 + 11 mod
// 256) for n = 0..129, computed with Python's hashlib. Every remainder
// mod 64 is covered, so finalize() pads within the last block (up to 55
// bytes buffered) and across a second one (56-63), after zero, one and
// two full blocks.
constexpr std::size_t kPatternLength = 129;
constexpr const char* kPatternDigests[kPatternLength + 1] = {
    "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",  // 0
    "e7cf46a078fed4fafd0b5e3aff144802b853f8ae459a4f0c14add3314b7cc3a6",  // 1
    "cdc63a6325d5fa92515578c0b418e6eeec1c6d085937a24fc43c2126ea517457",  // 2
    "b39fad1a1075f64570b3226d339ea818f9c66ecd2f1c59fd8b9c5a32b54c513f",  // 3
    "eedb9976fbc850679de37a930e6685d5d7db6ea7c723af34df528aa8b6fa46df",  // 4
    "b0876eace1394020b22cb0718294dd328ac1dc6bae00af2f064289022c86281a",  // 5
    "801da61dbcec49313c8da83ee4a11a12ab0a33d3acfef1cfe1661be0d5564751",  // 6
    "e759cdfe6d8119afd0dccf1b85394ff66d02636fd01db3189dae43e91e3c1385",  // 7
    "ada1a184226d6b2fd6a3728f3c5411d6651f387a6365d84fee8972f8fe55dba9",  // 8
    "5e0f483e871e0f84851ecd8b9ed0001677c4bf98638ab260d85ed264258c6904",  // 9
    "775297092df92dfd16a87620e0608f71e11b14b156c58d20846ab7b197d83eb7",  // 10
    "08fabd05da8d4962bb9f3ba1a1393ef41d38cbe575d5764715a966adb6da2d97",  // 11
    "dd3fd284d8cc574a76de2481f20213f443ba8f939e41b9855023901e4b508f73",  // 12
    "f9a3612d255e62d4ea5f0b94b5543bf0c0efb9f9acc1e759ad574ab269a9edba",  // 13
    "66c694f29564ed1be238f0cc7d5783a386be4598254f35bf2357cd372d2b3d5e",  // 14
    "09792492cd2b1db99c9726d9e94640a1b7fd99dce348acbdcd55daba1c7e7bf2",  // 15
    "cd7d620a0588e54dd46e114a6f4ae5212c82e48abe5a13703649a745861a0c60",  // 16
    "d6ef72ccf1dc07afb3074967c93919b8c410f0b633fec60ee3c7233441ceff44",  // 17
    "f903fae92d4e901c983f528192521f6dc333063cb3989d0e140b5bf9296fa6c3",  // 18
    "9a20ae798f2ad83bda7888c59ffd303dfe46b0d64a82ecb6b760be0f6f88d89c",  // 19
    "74da03933ab6fc62c7871c2994af988ff99b7f064737c81af8e81aceddaf57b6",  // 20
    "90ce7915f1f22d079093aa50265dd48754aa017d4ef23d5cafc06102d55002d6",  // 21
    "a0407fc482a072d7cc0035a8e3e7330654cf0762a474810fa109679ad1d02412",  // 22
    "4d556bf9c23323e0aba17945aad3a832e0f67dfe4d2222d6244c28c599c9312f",  // 23
    "23c7b48100a142072d8f750d7bb2e34d72cc46e6ac263c54a1a0b36fec0aa5da",  // 24
    "26c285015de52171ecaee093dff3f497dd3c0f12e4f484cebb3c35c05d54c510",  // 25
    "934d8a4d5356f43aedf493cc31a3e482df2df9eb2bcca87b5cd237972d023980",  // 26
    "a05ecc61ba4d79334e8cf64416940dee178907d88b5f63b194bb114057c472b8",  // 27
    "3dc7de8e7e5e2a49680248f1513fd2552a1be410681820abb813ab934c8b1ec0",  // 28
    "1a4959dca1af8f260fc0d66a18b58b59c21b23aca05a019eae35cf9e4bbca2c9",  // 29
    "c582303daf20ec31db865226561c32ff015ce49f00254dbb056a5d7544fb9b66",  // 30
    "0cc420417cb6a768e632bf1be8d1f197c9c0e9dd1dd2021e3bd37c46cee0516f",  // 31
    "83b7a8ed859053c81d818870fab1f8b1ae44d06a98a9665d369a8fd7d2838ded",  // 32
    "e19474c88a4056ba021fa047becc8366c59b3a933931d508ec4543450731132f",  // 33
    "9dad872820622ff8d5851eafd45e7dafd4ee3e22adece4a5f029668011f5c1ee",  // 34
    "97b4af583dbc8199a534122a55cc10d1a6c01de7138ee62cf5e5e71e6cddff23",  // 35
    "de547933205679b70215773345d0509b37c2028c25cbb2f58a7fe5c4943b0bdb",  // 36
    "c33aef5769fc88357a5805ef4e4d171ce91fdacf03d93c7826a944d4a725d11b",  // 37
    "cc539ac958c16c43b9071ae6191fd25f2839167b546e351dd503e0195404f4a5",  // 38
    "cfc1ad90c5803aed16496c24a6ef2669c3f71384bc6b32ed810583ec757e143c",  // 39
    "76def75856e5d73ece011b058b02d205991a48f0fcf8b7ddcc24005d57759b23",  // 40
    "c3e0156169b2a77559942d6c83f3910d0967752ee41c3db7d66ae8ce86f2e69e",  // 41
    "602d057fc3af303e2c318d681f05e1e7acbe07bdc9129434eac90b1c6739075d",  // 42
    "3396a0e8fca1de6d61bd8325a5c35e30c32e0c99b25e7b7e86a893103c77400e",  // 43
    "adef897bed495fd4f175556c1cfa9818dd7ea28e205be2c074f7673e428f1d46",  // 44
    "20b886fee380b8f643ff3839dfdfe82579f427e391fa15ecf926a5852ffca93b",  // 45
    "5012a47af354ee8d1fe54280e8da11b17c5b98dd39a8e86f2a82acbee6b1d2b9",  // 46
    "4c8c50af8719072140fd82c583ad0972136d3962ea3f70ee3b611d11acd386ad",  // 47
    "a6250da1e7ca144af7fdac8fd737c2e88e87cc08e232b16b53452227a56d5dde",  // 48
    "d08cf7eb5abf6b84dfc0187e137a8929855f59cccd4bcf5911f7912bf44a86f2",  // 49
    "32a1cfde77b79bf95b4ec12614851574efe58f62ff2513943fb58b003bce2b1e",  // 50
    "4eae55438a1f230e75259856b44bf3c4265fa98ab1c61813e1c5b8c63ff4f885",  // 51
    "a200151966c341bcae5526e4e9cb6c344b9231c4468b159d5d90ee56963ffb4a",  // 52
    "a41ad7999ea32fb38095ca92f1c54848aebd573b9a2922f572f684b1da8f5ac5",  // 53
    "0b35cded48f546833dc4e93133ffc3d7e05c7e41842f4accc39c6e04204c8dde",  // 54
    "2900465fcb533e05a158fd2b3be0e5e3b03740d83060aa3580e0d98a96bf2384",  // 55
    "31454ff48ef36af2f08fd511bdc37d9d5855ac23e992e5ff5445cb6b7674a674",  // 56
    "bcc0a5d3791b985b7550e04ca660a6c63a589ba1edd2283c8e110e5b515df124",  // 57
    "625f50f0c121a43afb524b104e3edf8eacf001ffd8795ac11609f458bb4c9003",  // 58
    "5a85bd878ca7ff9e9a89748f613bf443cf10d199662c21e7115fca98262fa411",  // 59
    "35d6f8129baac2bc4427ae4f5d831acde4a59233146da0e0524cd6b445ff6982",  // 60
    "de1025bf69990152626ae709c870a15a907a1775ecf669fb3d4955a4ee23a3da",  // 61
    "88908d0c7953bf0924d1e1e6f494578300aab9c32e4312f1e733832ff57d8bff",  // 62
    "5f6401b96532c36de4e65beec0409b69b1d181864c8009b7a04f43e5d56350d1",  // 63
    "94eb5de4943613fd048dc93393ab06877405faa39c11f53e9386083339833e7e",  // 64
    "fc518669b6eb4b4dd91827ecacef86689c725bd5bab888fd3b26dbb196eec954",  // 65
    "65d7b2dbf0f1402f1c5e0d31165ae5a2660417bb118185f8e802ff2433b10b61",  // 66
    "1751e734f4b375b9a87d788441da4e2054858e8a29ea3039579dd765f778c3c6",  // 67
    "82ca07354ec5f5f758372e2dc930e31aa6c6b4f488233e4e4333e6e3c373966e",  // 68
    "487875324c347b6baccc0e7b7c7e4a0e68e34f932cbb32b23b259c98af778f2c",  // 69
    "54600d51dc1bbf04fb01cd5120f7797e4f5b974e224c8963865d1ecad1bf6d3c",  // 70
    "2da56abe0ee37a408a94693d95f7af5e9774f0659a3c2593b33df5fb0a236e35",  // 71
    "f1ea2423d41c019f186e07091035dfdd3627392a51584d753295a86810066c61",  // 72
    "d3d699995b8dca504d20bdaf82d9ef8bc2f7bf3a2126eb7192a6e831f5b4babb",  // 73
    "085013af5c88bd1be39327fe36180ec513e4614bba72213b5709b490746ad03a",  // 74
    "bdfbaedb8843d8edbaf7ac25816e72e56410fcf73c03b88deb5bd6588a0e1bce",  // 75
    "afe11f0eeb094a486d48cc0487b69db3c7613ac5f504f4b6c634dc68064a5c19",  // 76
    "6f01858ea26c389578b8a5e009a3a31d8f0935e2825678ddd15139cffcd60eb5",  // 77
    "c32a314d01b530f4da04e1ee760e31c53753c90a32112f2a2f986051dd3e0d0c",  // 78
    "3e4ebacf675f162f656e4ad287e9851c295c07157e40345d00d450bfdfa06c74",  // 79
    "8afeccf31bf9f73cd8af1a4c0288ad4f0bb8e1d0774d48632c4ef1b5df82e779",  // 80
    "ddae3bfe09abd5afa42033db7b96cf8a28d19888c510d070135fe530b95de166",  // 81
    "87bc08d52cbd184319ab15d724cbc176b5c170a8e9006b822fe9d8cfd5429544",  // 82
    "48e6ff5b741939d250244be71835ccf9990e2ad25bf9c8421a478e5c6c05f864",  // 83
    "baa4f92a8a93935d5f99d9d47f04358eb56cda3fd880048c2b3da2b107450757",  // 84
    "aca8968db74fbd68c294dd826d1e7dcca58e321b505dc96eeebd5ac2f2c15636",  // 85
    "d3431be4fd07bc8d9fdaedbdc9584defa07ef03a34517d7e689180d429fcc144",  // 86
    "dd6ac441d2d8e74e32c2079f14e1763b52b177fac3f4833ae3896339d9c15341",  // 87
    "c51092ae9e5f2311f8cca2cd082a0c47dcef80524d7b9e497b92c4b6c287425f",  // 88
    "90202925504853497e21fdaad3d18a4caa0d3da1f25796fbfc221181cd5589aa",  // 89
    "38516949889807994420f40558eafc48753d4a99ec33d6a04045cf1d2e527b57",  // 90
    "6dd8ebcf9bdae6f557891ee487229ab4c37abc9bd5987c463935084c321eac0a",  // 91
    "2f4ac2663ceea0e9dd22721d110b2d6a565e000b1069436c7e723ca09a9af2f6",  // 92
    "f56327665603462dd71e534d972a4f9d2f4fb1b389c9a30affe8a99f1fcd7d37",  // 93
    "eeb364ed535ddee1ae978899ff0958363a8f3b27447baed3906bbf2bf225f93a",  // 94
    "47b36f08053588e6added63bcd14bec0c3017ef2e11cbf22fcb900863d70e02a",  // 95
    "88e785f8ea2039c6d181b4f501ac3f4458b904dea280fe66f2d590d7c098db25",  // 96
    "60919a22a1cff77e01622c9ff12b4e87852d978b9d3f6eec3790adacee05da13",  // 97
    "4169a946e6e90dc9125004dc10ee2f2ccd0bdb719c06099255e22ea34e3589f5",  // 98
    "de7c1ec4aa814a4bca044a6392f2d084b1247c751f859b0cc940e531e6c393bb",  // 99
    "5fb5d4b7ace49f5eac37422b8e1db12bab83cdbc2b7123abb61457e19c050d4c",  // 100
    "ef70de4d49e091d72d4cbf7c44c68d697564536a3dca09d5f18f11cf51652ccd",  // 101
    "ad2bfc2ba2bacc4924c52ef70ca127df712796bec9dbced853b9df366ee67e06",  // 102
    "9ae38e0d0111478e163e01ff1ee3b67272ab39b341165f217eafa18eacad09b8",  // 103
    "76701c4459d8d58fe7a0f16f5699e6074de6ca12005df1008ff618b4764c2818",  // 104
    "70ef868078a5640f4e1c8b7afd900329ea332be2a6a3f8e57dfeaf9f084e1b26",  // 105
    "237384e7b0fded9f4f7844f68892645380a022602c935668d7797365bf053a22",  // 106
    "f3d5506a70f4dbf96e095e15ecb257b1899ede36265815e781092f0ad5f04392",  // 107
    "0c0f21f9639bdc2404e10917555a5c62dc019032545343f5ea24d78d68e4b5c0",  // 108
    "dffe27d7c312f2e63c9183e4fdc0efb2ccddc29eb64789e34d4c701c8d6cca06",  // 109
    "65a81a885728692a22ddc6b961a4ea59c361e2e02de2bb27dfcdf41cd8dcd0d4",  // 110
    "aeca4f5a02aead30b044df2ce00b97f2f4874c25352eaa1916a1831819dcc3dd",  // 111
    "cec7a189fcea0a38f025f11208b1bd2b12ec291ff00ec5448a325c5c8db0c7ac",  // 112
    "cf1a963953155c44d16895e04631102a3e8c239321e045b9a62d71eac1c4a67a",  // 113
    "2ebc22005dfccb2af091d0f0b3131a44fccc4040ee238f94fa245759c08fb14f",  // 114
    "cd738c4986011502c886997e292dbf0d25ee5553903e367570ca86c269915dc5",  // 115
    "fb1b5da476c8834f72ac306a34864d8fceb08b88b625d8f40ccb54332ac92a98",  // 116
    "ae8dd3e46094282f5a992327888c1305d5291c5025a4bf6cfc3fb2f8bbfd36e5",  // 117
    "f3283313d4f923cd7202ee64fa023aa6daa492bc7838b9f970d24a9f8cc62a93",  // 118
    "b0dc41b1a384e2f1203f0351b38fbeaafceef577ce1191d5bfc25da39f721eae",  // 119
    "5df24dd802ac26132ce608dcb5f09841eef039ee0f152acf98d26d17fe4e88e6",  // 120
    "5ed5a129bb49444fe2585d785920135a02f64350edf57c5f3ce7605b86f39039",  // 121
    "8419642ca144c4337525ba61c1f2d3d291449fd49c86eaa902ea1eb756865794",  // 122
    "b9b8bc6127b8c9e1396cc2081b5181edc2a264746b6038b094e49b7ea8a98a46",  // 123
    "3dc980ced4e4687929dd079c84fe8e6e4b3d6a80435a68bb3ad4bb860ea63b80",  // 124
    "7e4f5abad35b869cb65368b12294c008848db0e48c513f6eab6c768daabe73ab",  // 125
    "8513afe4abd1c76b2e4959fa30344f1c85bb8acbbf0284f161aa47fbf459e483",  // 126
    "0fe729ff19257bd6fec853acc2ea355f6b34b58e6c0f684c3e188fcdfcd9baae",  // 127
    "0aedd4856f8eba0963627336ad5144a9a7dbe12498e6066f0165fc97d8ddee4c",  // 128
    "4f1757ae4bffbae86d775b831765b75af154d52f7deaa46dd378051a2d3ad57f",  // 129
};

std::vector<std::uint8_t> pattern() {
  std::vector<std::uint8_t> bytes(kPatternLength);
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    bytes[i] = static_cast<std::uint8_t>(i * 37 + 11);
  }
  return bytes;
}

TEST(Sha256, EveryLengthThroughTwoBlocksMatchesReference) {
  const std::vector<std::uint8_t> bytes = pattern();
  for (std::size_t n = 0; n <= kPatternLength; ++n) {
    const std::span<const std::uint8_t> msg(bytes.data(), n);
    EXPECT_EQ(digest_hex(sha256(msg)), kPatternDigests[n]) << "length " << n;
    // Byte-at-a-time updates leave every length buffered at finalize().
    Sha256 h;
    for (std::size_t i = 0; i < n; ++i) h.update(msg.subspan(i, 1));
    EXPECT_EQ(digest_hex(h.finalize()), kPatternDigests[n]) << "length " << n;
  }
}

TEST(Sha256, DoubleHashDiffersFromSingle) {
  EXPECT_NE(sha256d("abc"), sha256("abc"));
  // sha256d = sha256(sha256(x)) exactly.
  const Sha256Digest inner = sha256("abc");
  EXPECT_EQ(sha256d("abc"),
            sha256(std::span<const std::uint8_t>(inner.data(), inner.size())));
}

TEST(Sha256, DistinctInputsDistinctDigests) {
  EXPECT_NE(sha256("a"), sha256("b"));
  EXPECT_NE(sha256(""), sha256(std::string(1, '\0')));
}

}  // namespace
}  // namespace cn
