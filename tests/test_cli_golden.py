"""Golden CLI outputs: a fixed command list with the exit code and the
sha256 of stdout for each command.

The list covers every class subcommand at small n and k (every `conf-proj`
fixed point with n <= 3 and k <= 3), text and json output, the cheap
checks, `a-oracle` at its largest k, the point-data series checks at
their largest N, a few usage errors and one past each edge of every size
range and of the residue pole height.  A change that alters any printed byte or exit code fails here.
To print the table for the current code, run

    PYTHONPATH=src python tests/test_cli_golden.py
"""

import contextlib
import hashlib
import io

from confchern import cli

# exit code, sha256 of stdout, argv (whitespace-separated)
GOLDEN = """\
0 58341662c1a9ed67b5369ed89ee3bd612543896e486c4648d4d0b555946cf8a7 conf-affine --n 1 --k 1 --output text
0 f6d9f36dd2ae5878ee3670bc3130b7d3defc04afbfe92f5415c26ccff5e1ffe1 conf-affine --n 1 --k 1 --output json
0 d004041cf737ea38c6ba32468bbd5734058c9411d38ab5f33b506a0013182ef7 conf-affine --n 1 --k 2 --output text
0 8c4391bd6c5ecd1f1f0e1d465558dd0abc585c8d2db917cd7d575c04ceb9aaf9 conf-affine --n 1 --k 2 --output json
0 e6ab104dd21b498806d8ddffd22ec8c7f9607f1d204adfe120431b412173e984 conf-affine --n 1 --k 3 --output text
0 9e2c9d964da6797fc9bf1cbca69811edce3f04dce6d57fd001a7c63f64c49038 conf-affine --n 1 --k 3 --output json
0 cdb35fc03af9ce736ba45efc2b9de4366b430c8cbe24f1bcf09c2fbc76905863 conf-affine --n 2 --k 1 --output text
0 bd3944b450067d953faed3a143f37435746cad02af17bbc32d341839a25beb57 conf-affine --n 2 --k 1 --output json
0 9835ce067c2e770407b4653bd085ddc83a899fc6e8d3defcf75d654ff9dc5d27 conf-affine --n 2 --k 2 --output text
0 3d53054dd562250fe144b1bb3eaf2b896d1aa8dfd6643f8e65d5fcc4ffaafe7d conf-affine --n 2 --k 2 --output json
0 77c805435b9248fd5e407b5da52cc8755434c5695a09b52c6d25970e37b47168 conf-affine --n 2 --k 3 --output text
0 81c3ab0de2e1aa700486750b3d3632dd3ab677f331fbdbc144b65eeca6675b68 conf-affine --n 2 --k 3 --output json
0 938ffdf7bfbd073917034d23dfe52bfa1ef716d099f81ef9f4d0e2cbc19b1d87 conf-affine --n 3 --k 1 --output text
0 02422654630249f57156ab0a1e840feb6f13f9ee3081fc1ea7bebcc9be92bf14 conf-affine --n 3 --k 1 --output json
0 d22ca2a3e5394c21c2162274286575aa1314bd47bb48c68be5e72143e2a6c661 conf-affine --n 3 --k 2 --output text
0 c18b6ebf96c812bdf5cb25ba00c1bc0950bc3e0081cd41ce6f9447ec4dfbdb98 conf-affine --n 3 --k 2 --output json
0 d3ad9783f9a05485d5c40dba39514f58c87e41447bc21e532f48084aa2d1d28f conf-affine --n 3 --k 3 --output text
0 e1af4ab7bbbfc8439189423336d5e760ff2ce7e39ce17294880dbae3b9093ad3 conf-affine --n 3 --k 3 --output json
0 852e53cc0353c0db801173dab33bdb412443b4acd0ded998ecd58be0b922a59a conf-affine --n 3 --k 4 --output text
0 4355a46b19d348dc2f57c046f8ef63d4538ebb936000f3c9ee954a27460dd865 conf-proj --n 1 --point 1 --output text
0 0c5ee3146e0fdec72e273bb3b77a6d946702d53a330b390a9792dbf41b27abea conf-proj --n 1 --point 1 --output json
0 9a271f2a916b0b6ee6cecb2426f0b3206ef074578be55d9bc94f6f3fe3ab86aa conf-proj --n 1 --point 1,1 --output text
0 4a4c074274e5cede3dad5e4f4af2ddb3c0fa78424a25b6eae2073bb883c117c3 conf-proj --n 1 --point 1,1 --output json
0 9a271f2a916b0b6ee6cecb2426f0b3206ef074578be55d9bc94f6f3fe3ab86aa conf-proj --n 1 --point 1,1,1 --output text
0 4a4c074274e5cede3dad5e4f4af2ddb3c0fa78424a25b6eae2073bb883c117c3 conf-proj --n 1 --point 1,1,1 --output json
0 e35c48c12cd26131f40017b04f30831c623acf0787ee2460a683cce7e0516a0f conf-proj --n 2 --point 1 --output text
0 d620ce33191620f7adef2ba7bde038c2b732151862ae6d2fb81253aae8500678 conf-proj --n 2 --point 1 --output json
0 84f155d1df6665c9724277e4843976a1292a896ea03d6aebbd9880daf4306563 conf-proj --n 2 --point 2 --output text
0 f387b1c37c5c80831c6bc3a6ad425a8b08fa8705e3ae124aa864cd1a6d6d6378 conf-proj --n 2 --point 2 --output json
0 5c6c6992f7c8e08bf58a2b90a194d92ef70d54209369f442b7ce040a9c6f6ca1 conf-proj --n 2 --point 1,1 --output text
0 3dc51bea9bd160ecccf1c8a2fc8cf638af3732b329e280a0e2ac0b3b5b3e0fbc conf-proj --n 2 --point 1,1 --output json
0 10b2b97863043ee83daedfa716b1a1b8dfc690d1f134ba67e33f45a61bc900a5 conf-proj --n 2 --point 1,2 --output text
0 baefb0bf33715589d83000e92d82fb72a7f21b9a33c73da5450f12ff03db5303 conf-proj --n 2 --point 1,2 --output json
0 10b2b97863043ee83daedfa716b1a1b8dfc690d1f134ba67e33f45a61bc900a5 conf-proj --n 2 --point 2,1 --output text
0 baefb0bf33715589d83000e92d82fb72a7f21b9a33c73da5450f12ff03db5303 conf-proj --n 2 --point 2,1 --output json
0 586b73605a2013a8d0846c5910ad8f52df38f972ce4221a46495adf92c3f1fc9 conf-proj --n 2 --point 2,2 --output text
0 9e21783d8b4a54d8874da1829d335906037120d663c7220a39069941a7dd19af conf-proj --n 2 --point 2,2 --output json
0 842f456d5a043c5c8ae93836a75fa982e9c5258127615255f2da17fa45c51e8c conf-proj --n 2 --point 1,1,1 --output text
0 3c16887f728a08b14878fea536db037ca5c536971f4b1ffe6ae7bb05ed1b6b8a conf-proj --n 2 --point 1,1,1 --output json
0 1dfae942bf5ddec40cb4399b91f96ef9ebce0401b00336ec34b90fd09c70cc2d conf-proj --n 2 --point 1,1,2 --output text
0 77e9a08cd4a25bcd6bdf8bb3165e6ea42729593c20d303750e52e847900e76c2 conf-proj --n 2 --point 1,1,2 --output json
0 1dfae942bf5ddec40cb4399b91f96ef9ebce0401b00336ec34b90fd09c70cc2d conf-proj --n 2 --point 1,2,1 --output text
0 77e9a08cd4a25bcd6bdf8bb3165e6ea42729593c20d303750e52e847900e76c2 conf-proj --n 2 --point 1,2,1 --output json
0 52c9e11c454883b8384ca376c0927c0d37358cbdba4fc5619660eb032e59d501 conf-proj --n 2 --point 1,2,2 --output text
0 25bdf7b9162661cddaea1177ed0fa20a46f9b637c409e7987239c7d477d479af conf-proj --n 2 --point 1,2,2 --output json
0 1dfae942bf5ddec40cb4399b91f96ef9ebce0401b00336ec34b90fd09c70cc2d conf-proj --n 2 --point 2,1,1 --output text
0 77e9a08cd4a25bcd6bdf8bb3165e6ea42729593c20d303750e52e847900e76c2 conf-proj --n 2 --point 2,1,1 --output json
0 52c9e11c454883b8384ca376c0927c0d37358cbdba4fc5619660eb032e59d501 conf-proj --n 2 --point 2,1,2 --output text
0 25bdf7b9162661cddaea1177ed0fa20a46f9b637c409e7987239c7d477d479af conf-proj --n 2 --point 2,1,2 --output json
0 52c9e11c454883b8384ca376c0927c0d37358cbdba4fc5619660eb032e59d501 conf-proj --n 2 --point 2,2,1 --output text
0 25bdf7b9162661cddaea1177ed0fa20a46f9b637c409e7987239c7d477d479af conf-proj --n 2 --point 2,2,1 --output json
0 34764e770e68d9abff5e951f97dea418f149ec5ed6cfc3145cc7c05b03d3d6dc conf-proj --n 2 --point 2,2,2 --output text
0 40fe7ce13c7cc58a510f5cbf7cbb94b97708c27202564236d0cee04aa04dc49f conf-proj --n 2 --point 2,2,2 --output json
0 99282194cc2d37735f4f733335111c620a90ad8f82903c0a80ac9d40e640c8b9 conf-proj --n 3 --point 1 --output text
0 96d0ea21a88bcdf778e50abf0675de37bfe08ec20c82e46828d4c71bb54b2689 conf-proj --n 3 --point 1 --output json
0 8dd48089a26cf6413e7a2f9e742825151bfa7620824c2ec1bd958f1be1864f1f conf-proj --n 3 --point 2 --output text
0 c00f3f169c1bb9c59c02797848eb98e77311ec0aab8f804463c2bbf0aa5ab6b4 conf-proj --n 3 --point 2 --output json
0 178dadec71ab82bc1dcb49fc684f8ef05cd58049d7973b35fbcd18d1aa73d243 conf-proj --n 3 --point 3 --output text
0 e36f499bc948d86f7f4d64700fdfe3a9781627bfa996619f578857a53ba40793 conf-proj --n 3 --point 3 --output json
0 33bc113e273a86e08c143d035f7da12c7455b1c62732e1fe092f62cb91cf195e conf-proj --n 3 --point 1,1 --output text
0 9f6d892ad97a60afe66e0d4bc72c38ac8252d234ca3eab7f1e24b86ad9f0e73c conf-proj --n 3 --point 1,1 --output json
0 95967fc979e8f007d357b4014b498100da7a017714563cc6f8c9257e498c0d38 conf-proj --n 3 --point 1,2 --output text
0 0fa50b22168bfcd4f85c6b5d4d98cdf90d216672739ff82c3625eb329d0b28bf conf-proj --n 3 --point 1,2 --output json
0 d7e59ad313c0af544279d4e0d00aeaef80b949f51cfb6eab1d6d8ddcda2efb84 conf-proj --n 3 --point 1,3 --output text
0 5148c1a9cd912c0770be518423a3c280e134ef4bdac84b376130adb3c2a97c2a conf-proj --n 3 --point 1,3 --output json
0 95967fc979e8f007d357b4014b498100da7a017714563cc6f8c9257e498c0d38 conf-proj --n 3 --point 2,1 --output text
0 0fa50b22168bfcd4f85c6b5d4d98cdf90d216672739ff82c3625eb329d0b28bf conf-proj --n 3 --point 2,1 --output json
0 326857fc7cff5d765ddacf54b5a38bbc6120f39e46aaf13f3fb3945c9716fefa conf-proj --n 3 --point 2,2 --output text
0 c8cebf23b313721941613cc46988e539ffc573bb3645bbf74a6762531c9381aa conf-proj --n 3 --point 2,2 --output json
0 a7f6d7ec025a34f1810c5161cf80ceaa9c0d073e1c0dba7dd77c03b23aeb1426 conf-proj --n 3 --point 2,3 --output text
0 888253d7c6f713a5c7ce72140fa5b821f5793943bcfe9e47d68e0bd7aa78901a conf-proj --n 3 --point 2,3 --output json
0 d7e59ad313c0af544279d4e0d00aeaef80b949f51cfb6eab1d6d8ddcda2efb84 conf-proj --n 3 --point 3,1 --output text
0 5148c1a9cd912c0770be518423a3c280e134ef4bdac84b376130adb3c2a97c2a conf-proj --n 3 --point 3,1 --output json
0 a7f6d7ec025a34f1810c5161cf80ceaa9c0d073e1c0dba7dd77c03b23aeb1426 conf-proj --n 3 --point 3,2 --output text
0 888253d7c6f713a5c7ce72140fa5b821f5793943bcfe9e47d68e0bd7aa78901a conf-proj --n 3 --point 3,2 --output json
0 20183ba31ba43be5a603fb5710496bcd9dc25933df40c11594ee0fcbeba18201 conf-proj --n 3 --point 3,3 --output text
0 6e8001fde4fc9b06f77ba409343886830575e8eeab344d8a92030b0fa9881152 conf-proj --n 3 --point 3,3 --output json
0 2e9376a1eec8ba538cfb9252e13701528f55a9f3ab18f8b92a566373de0e81f8 conf-proj --n 3 --point 1,1,1 --output text
0 c5bd27e566ae65f9b42238693849e60abdf0cb63e728b4ef811f96b66c7261ff conf-proj --n 3 --point 1,1,1 --output json
0 dd02e19bdea8cc92442b5b595dcbec6600ca6a6c62a761064223da493c77dddc conf-proj --n 3 --point 1,1,2 --output text
0 f6f2c98229d17968fa405d242cf2e5639f241de7f60e84e58e080d2f0e9ebcd6 conf-proj --n 3 --point 1,1,2 --output json
0 ecce378b5ed65394597ee7b4bd6a33f3bb87acd97d3718c4413b022c0b83ee3c conf-proj --n 3 --point 1,1,3 --output text
0 033f85b4aa0187634ad2935ce9460af3aa12c6166678147d1d5083dc785b6a64 conf-proj --n 3 --point 1,1,3 --output json
0 dd02e19bdea8cc92442b5b595dcbec6600ca6a6c62a761064223da493c77dddc conf-proj --n 3 --point 1,2,1 --output text
0 f6f2c98229d17968fa405d242cf2e5639f241de7f60e84e58e080d2f0e9ebcd6 conf-proj --n 3 --point 1,2,1 --output json
0 6368e54b1925948b00b44ca4345e762d08d5b03b882594333e2ed65c08a60faa conf-proj --n 3 --point 1,2,2 --output text
0 49cc14ba5f55b3a346bc7dd05a7966e9912344619ba0750d1f2c1124bd2e45ea conf-proj --n 3 --point 1,2,2 --output json
0 2badcaeed35b18d70348d08b751648859dea9d9079680c0089a5e7dedca863e5 conf-proj --n 3 --point 1,2,3 --output text
0 96b38ce5337d24d503b133124328af64fc837fc4aee4e3d4f847b188a6f648e3 conf-proj --n 3 --point 1,2,3 --output json
0 ecce378b5ed65394597ee7b4bd6a33f3bb87acd97d3718c4413b022c0b83ee3c conf-proj --n 3 --point 1,3,1 --output text
0 033f85b4aa0187634ad2935ce9460af3aa12c6166678147d1d5083dc785b6a64 conf-proj --n 3 --point 1,3,1 --output json
0 2badcaeed35b18d70348d08b751648859dea9d9079680c0089a5e7dedca863e5 conf-proj --n 3 --point 1,3,2 --output text
0 96b38ce5337d24d503b133124328af64fc837fc4aee4e3d4f847b188a6f648e3 conf-proj --n 3 --point 1,3,2 --output json
0 ccc5d18e68caba610d3e121fdef0a4b953287893cc080933aaabb8e9f26da4cc conf-proj --n 3 --point 1,3,3 --output text
0 92dd969d9300e018a2a503b537f688eb7d95e9127cbe4c79d1f6cede616222b9 conf-proj --n 3 --point 1,3,3 --output json
0 dd02e19bdea8cc92442b5b595dcbec6600ca6a6c62a761064223da493c77dddc conf-proj --n 3 --point 2,1,1 --output text
0 f6f2c98229d17968fa405d242cf2e5639f241de7f60e84e58e080d2f0e9ebcd6 conf-proj --n 3 --point 2,1,1 --output json
0 6368e54b1925948b00b44ca4345e762d08d5b03b882594333e2ed65c08a60faa conf-proj --n 3 --point 2,1,2 --output text
0 49cc14ba5f55b3a346bc7dd05a7966e9912344619ba0750d1f2c1124bd2e45ea conf-proj --n 3 --point 2,1,2 --output json
0 2badcaeed35b18d70348d08b751648859dea9d9079680c0089a5e7dedca863e5 conf-proj --n 3 --point 2,1,3 --output text
0 96b38ce5337d24d503b133124328af64fc837fc4aee4e3d4f847b188a6f648e3 conf-proj --n 3 --point 2,1,3 --output json
0 6368e54b1925948b00b44ca4345e762d08d5b03b882594333e2ed65c08a60faa conf-proj --n 3 --point 2,2,1 --output text
0 49cc14ba5f55b3a346bc7dd05a7966e9912344619ba0750d1f2c1124bd2e45ea conf-proj --n 3 --point 2,2,1 --output json
0 4b817d2f73d11eb19bc357e386bd3c17ab5ef0ea15bda9214c9598d4b70c75b6 conf-proj --n 3 --point 2,2,2 --output text
0 c50425ec2bf365f7c9be5866ef3437bbae062aaaf111c0d1e38b3cfd886e9e23 conf-proj --n 3 --point 2,2,2 --output json
0 03da3167665027876af366e38bfdca126f2dc4a4ab1cd4a4d8891f6357846b9c conf-proj --n 3 --point 2,2,3 --output text
0 f18cfaf4136ca1932a29f3de92addb773702362290c18bd9018b427c1ac57fc8 conf-proj --n 3 --point 2,2,3 --output json
0 2badcaeed35b18d70348d08b751648859dea9d9079680c0089a5e7dedca863e5 conf-proj --n 3 --point 2,3,1 --output text
0 96b38ce5337d24d503b133124328af64fc837fc4aee4e3d4f847b188a6f648e3 conf-proj --n 3 --point 2,3,1 --output json
0 03da3167665027876af366e38bfdca126f2dc4a4ab1cd4a4d8891f6357846b9c conf-proj --n 3 --point 2,3,2 --output text
0 f18cfaf4136ca1932a29f3de92addb773702362290c18bd9018b427c1ac57fc8 conf-proj --n 3 --point 2,3,2 --output json
0 07be47ac039b3175d27c72f11efb1e2d25f7785bc9cd99983a98411aabd6e948 conf-proj --n 3 --point 2,3,3 --output text
0 edfa40ab51421d16a15433bbdc95f3b397699d54a1dc20e049a01688c6a901a6 conf-proj --n 3 --point 2,3,3 --output json
0 ecce378b5ed65394597ee7b4bd6a33f3bb87acd97d3718c4413b022c0b83ee3c conf-proj --n 3 --point 3,1,1 --output text
0 033f85b4aa0187634ad2935ce9460af3aa12c6166678147d1d5083dc785b6a64 conf-proj --n 3 --point 3,1,1 --output json
0 2badcaeed35b18d70348d08b751648859dea9d9079680c0089a5e7dedca863e5 conf-proj --n 3 --point 3,1,2 --output text
0 96b38ce5337d24d503b133124328af64fc837fc4aee4e3d4f847b188a6f648e3 conf-proj --n 3 --point 3,1,2 --output json
0 ccc5d18e68caba610d3e121fdef0a4b953287893cc080933aaabb8e9f26da4cc conf-proj --n 3 --point 3,1,3 --output text
0 92dd969d9300e018a2a503b537f688eb7d95e9127cbe4c79d1f6cede616222b9 conf-proj --n 3 --point 3,1,3 --output json
0 2badcaeed35b18d70348d08b751648859dea9d9079680c0089a5e7dedca863e5 conf-proj --n 3 --point 3,2,1 --output text
0 96b38ce5337d24d503b133124328af64fc837fc4aee4e3d4f847b188a6f648e3 conf-proj --n 3 --point 3,2,1 --output json
0 03da3167665027876af366e38bfdca126f2dc4a4ab1cd4a4d8891f6357846b9c conf-proj --n 3 --point 3,2,2 --output text
0 f18cfaf4136ca1932a29f3de92addb773702362290c18bd9018b427c1ac57fc8 conf-proj --n 3 --point 3,2,2 --output json
0 07be47ac039b3175d27c72f11efb1e2d25f7785bc9cd99983a98411aabd6e948 conf-proj --n 3 --point 3,2,3 --output text
0 edfa40ab51421d16a15433bbdc95f3b397699d54a1dc20e049a01688c6a901a6 conf-proj --n 3 --point 3,2,3 --output json
0 ccc5d18e68caba610d3e121fdef0a4b953287893cc080933aaabb8e9f26da4cc conf-proj --n 3 --point 3,3,1 --output text
0 92dd969d9300e018a2a503b537f688eb7d95e9127cbe4c79d1f6cede616222b9 conf-proj --n 3 --point 3,3,1 --output json
0 07be47ac039b3175d27c72f11efb1e2d25f7785bc9cd99983a98411aabd6e948 conf-proj --n 3 --point 3,3,2 --output text
0 edfa40ab51421d16a15433bbdc95f3b397699d54a1dc20e049a01688c6a901a6 conf-proj --n 3 --point 3,3,2 --output json
0 3039c6138abfce20976a9bf5444b3b4bf335a37eda1ba5caeb6585fbf9c0771a conf-proj --n 3 --point 3,3,3 --output text
0 d67cf67e8349aeda0c6e80498a793d6259938bdf1a284f1e5f54f5d771689b53 conf-proj --n 3 --point 3,3,3 --output json
0 a47dd19250760af17f99fbd62638d71c166b66d8666f1eeb5770ce06db5bc3d4 conf-proj --n 4 --point 1,1,2,3 --output json
0 1fe43c96537302cdeefed5adfe32cb69054116ae70b334d21106dcf0c9161712 orbit --n 1 --k 1 --output text
0 87b86ead4b62f468cfabd1589d3e619248d6f0faa7ef81d8748d9a5b21353f68 orbit --n 1 --k 1 --output json
0 9a271f2a916b0b6ee6cecb2426f0b3206ef074578be55d9bc94f6f3fe3ab86aa orbit --n 1 --k 2 --output text
0 6cf6770a98b2f5c65d12dc62f62968bbdeead8f142ed30cbfad5761f3de88cc7 orbit --n 1 --k 2 --output json
0 36449f620e6737b1abbecf7266d6c2cab419a613203858daa8af7f2ae82996a6 orbit --n 2 --k 1 --output text
0 679b9e4fb05797cbe26d96ae0e76267e5325127eeefdfadefa6664f0cc442898 orbit --n 2 --k 1 --output json
0 0e554bdfd5a81492426eaa1d7909e172c8ccd507e7fa9673317b3412350857d1 orbit --n 2 --k 2 --output text
0 0d25389d4f95d65898a25c9d3565e1d81ce3007e54fa0c8fd270bb32724e9525 orbit --n 2 --k 2 --output json
0 24cab08dc1b321061952c6e2544cfd112a3d6bc8c401a9dc0c730edb27b64017 orbit --n 2 --k 4 --output text
0 38d1e1d668359589238d839bf331b61520eba66ff949133edacc165f7fd60ed8 orbit --n 2 --k 4 --output json
0 e0f6b53a1e6986d4593c0886a993949d850854d326e9e22fefa6cf97f8bb1e34 orbit --n 3 --k 3 --output json
0 7b2cf2a6cd9c156f0af558f9ffefd6dd949feb80bcfa91a64fccd123be88fb93 orbit --n 3 --k 2 --output text
0 d0a43a4e9925ad69b9729f1fc23b92d96760964c83c7cef3e74a6b25c6eef4fc orbit --n 4 --k 2 --output json
0 1c2db87579384df2a3066cecb5c9c5cc5e563c98930669551c3b95b16b9ba569 orbit-full --n 1 --k 1 --output text
0 1761ef1d41b8169afe010d924c4e2163b684f8cfd0e6f36e31298f9bf02a78dd orbit-full --n 1 --k 1 --output json
0 1e018afd62a00026416e77eeb8b909daf75d4ad71b4cf17711613d2aef0674f8 orbit-full --n 1 --k 2 --output text
0 8739ee03e0d1ec8b6f0a819c80a7534f6a61ce939c63389446c16a83b9d8ac8e orbit-full --n 1 --k 2 --output json
0 924cd02f784bb23628890d0ee595ddb36596546cf5bfb5b75e3cd778e9b8a2fe orbit-full --n 2 --k 1 --output text
0 d31b8a6d6518d1418d9c7b748655a3a9a53811b8623768d985debb99c7e8b402 orbit-full --n 2 --k 1 --output json
0 e05853b33c5bb447f3a435be8b0325475adac4efb8d7b6caef7388bf284c13e8 orbit-full --n 2 --k 2 --output text
0 7e8149a2039738c4e70f4cb8eaf4767defa669773c462246af81ca83c59c9f20 orbit-full --n 2 --k 2 --output json
0 3bd70f19c85cc0c91ffd43a4903dc219e6bb252439e7223126558f096a598ccf orbit-full --n 2 --k 3 --output text
0 e55915183eca30e1fd4f0b512f605f4dba6c63f144bdb78431ab8849a4967f0f orbit-full --n 2 --k 3 --output json
0 2e1ba0aa65999e58f04993802099c0a674763683fdc988b22266c30ae1c0307d orbit-full --n 2 --k 4 --output json
0 4ac9713466fc4490180b164b66e60f02cdeaebffac9a9dfd1334e3537f3058b1 orbit-full --n 3 --k 2 --output text
0 eb6e3d2d1929e05ee142d197f0bfe64cf2cfada1cf086d040c79ab8a441ed722 orbit-full --n 3 --k 3 --output json
0 d343494b500b4aab728703f93af60a401b47386b014ad550f9d8c133b02cc7ad orbit-full --n 4 --k 2 --output text
0 aef7d9fa9910f530d3eb6ef1a609bc455e44c24a920f1dc85329750706d11dc6 check --name a-oracle --k 4
0 9c0ef4f31c16b4bfab80756a8ff5b54314b32e9984969e60aa391a488c39ef4e check --name a-oracle --k 5
0 c26de83abdc9496cd1301470918ec39ecca1cf389ef0ae1c6504da1800d1c431 check --name szeregi --N 5
0 c26de83abdc9496cd1301470918ec39ecca1cf389ef0ae1c6504da1800d1c431 check --name s1 --N 5
0 c26de83abdc9496cd1301470918ec39ecca1cf389ef0ae1c6504da1800d1c431 check --name s3-point --N 5
0 c26de83abdc9496cd1301470918ec39ecca1cf389ef0ae1c6504da1800d1c431 check --name szeregi --N 7
0 c26de83abdc9496cd1301470918ec39ecca1cf389ef0ae1c6504da1800d1c431 check --name s1 --N 7
0 c26de83abdc9496cd1301470918ec39ecca1cf389ef0ae1c6504da1800d1c431 check --name s3-point --N 7
0 c26de83abdc9496cd1301470918ec39ecca1cf389ef0ae1c6504da1800d1c431 check --name szeregi --N 18
0 c26de83abdc9496cd1301470918ec39ecca1cf389ef0ae1c6504da1800d1c431 check --name s1 --N 18
0 c26de83abdc9496cd1301470918ec39ecca1cf389ef0ae1c6504da1800d1c431 check --name s3-point --N 18
0 c26de83abdc9496cd1301470918ec39ecca1cf389ef0ae1c6504da1800d1c431 check --name s2 --n 1 --N 3
0 c26de83abdc9496cd1301470918ec39ecca1cf389ef0ae1c6504da1800d1c431 check --name s2 --n 2 --N 3
0 c26de83abdc9496cd1301470918ec39ecca1cf389ef0ae1c6504da1800d1c431 check --name s2 --n 3 --N 3
0 c26de83abdc9496cd1301470918ec39ecca1cf389ef0ae1c6504da1800d1c431 check --name s2 --n 4 --N 2
0 c26de83abdc9496cd1301470918ec39ecca1cf389ef0ae1c6504da1800d1c431 check --name s2-full --n 1 --N 3
0 c26de83abdc9496cd1301470918ec39ecca1cf389ef0ae1c6504da1800d1c431 check --name s2-full --n 2 --N 3
0 c26de83abdc9496cd1301470918ec39ecca1cf389ef0ae1c6504da1800d1c431 check --name s2-full --n 3 --N 3
0 c26de83abdc9496cd1301470918ec39ecca1cf389ef0ae1c6504da1800d1c431 check --name s2-full --n 4 --N 2
0 c26de83abdc9496cd1301470918ec39ecca1cf389ef0ae1c6504da1800d1c431 check --name residue --alphas 2,3 --N 2
0 c26de83abdc9496cd1301470918ec39ecca1cf389ef0ae1c6504da1800d1c431 check --name residue --alphas=-2,1/2 --N 2
0 c26de83abdc9496cd1301470918ec39ecca1cf389ef0ae1c6504da1800d1c431 check --name residue --alphas=-2,1/2,3 --N 3
0 c26de83abdc9496cd1301470918ec39ecca1cf389ef0ae1c6504da1800d1c431 check --name residue --alphas 2,3 --N 8
0 c26de83abdc9496cd1301470918ec39ecca1cf389ef0ae1c6504da1800d1c431 check --name bb-stability --n 2 --k 2
0 c26de83abdc9496cd1301470918ec39ecca1cf389ef0ae1c6504da1800d1c431 check --name bb-stability --n 4 --k 3
0 573c3e560e3e1910805a353d82de46a1986cb96fffd55b986dcc4524314e34ed check --name recursion --n 2 --k 3
0 24acda4837390294522f260446ee1496cbb1daed4ea24762db7c4c8d4d114e30 check --name recursion --n 3 --k 2
0 8ab9c4889a19d6d4f0863ad049506827fd0473d1c64da4b24d82b7507bdea726 check --name limits-props --count 50
0 c26de83abdc9496cd1301470918ec39ecca1cf389ef0ae1c6504da1800d1c431 check --name s1 --N 4 --output json
2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 conf-affine --n 1 --k 0
2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 conf-affine --n 1 --k 8
2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 conf-affine --n 7 --k 1
2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 conf-proj --n 2 --point 3
2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 conf-proj --n 2 --point 0,1
2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 check --name s2 --n 9 --N 2
2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 check --name szeregi --N 19
2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 conf-affine --n 0 --k 1
2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 orbit --n 0 --k 1
2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 orbit --n 7 --k 1
2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 orbit --n 1 --k 0
2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 orbit --n 1 --k 8
2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 orbit-full --n 0 --k 1
2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 orbit-full --n 7 --k 1
2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 orbit-full --n 1 --k 0
2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 orbit-full --n 1 --k 8
2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 orbit --n 3 --k 6
2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 orbit --n 4 --k 5
2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 orbit --n 5 --k 4
2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 orbit --n 6 --k 4
2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 orbit-full --n 3 --k 6
2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 orbit-full --n 4 --k 5
2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 orbit-full --n 5 --k 4
2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 orbit-full --n 6 --k 4
2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 conf-affine --n 6 --k 6
2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 conf-proj --n 6 --point 1,1,2,2,3,3,4
2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 conf-proj --n 0 --point 1
2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 conf-proj --n 7 --point 1
2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 conf-proj --n 1 --point 1,1,1,1,1,1,1,1
2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 check --name a-oracle --k 0
2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 check --name a-oracle --k 7
2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 check --name szeregi --N 0
2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 check --name s1 --N 0
2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 check --name s1 --N 19
2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 check --name s3-point --N 0
2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 check --name s3-point --N 19
2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 check --name s2 --n 0 --N 1
2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 check --name s2 --n 7 --N 1
2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 check --name s2 --n 1 --N 0
2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 check --name s2 --n 1 --N 19
2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 check --name s2 --n 2 --N 19
2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 check --name s2 --n 3 --N 11
2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 check --name s2 --n 4 --N 7
2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 check --name s2 --n 5 --N 5
2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 check --name s2 --n 6 --N 3
2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 check --name s2-full --n 0 --N 1
2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 check --name s2-full --n 7 --N 1
2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 check --name s2-full --n 1 --N 0
2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 check --name s2-full --n 1 --N 19
2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 check --name s2-full --n 2 --N 19
2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 check --name s2-full --n 3 --N 11
2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 check --name s2-full --n 4 --N 7
2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 check --name s2-full --n 5 --N 5
2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 check --name s2-full --n 6 --N 3
2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 check --name residue --N 0
2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 check --name residue --N 9
2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 check --name residue --alphas 2,3,4,5,6,7,8,9,10,11,12,13,14,15,16,17,18,19,20,21,22,23,24,25,26,27,28,29,30,31,32,33,34 --N 1
2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 check --name residue --alphas 2,100000000000000000000 --N 1
2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 check --name residue --alphas 2,1/100000000000000000000 --N 1
2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 check --name bb-stability --n 1 --k 1
2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 check --name bb-stability --n 5 --k 1
2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 check --name bb-stability --n 2 --k 0
2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 check --name bb-stability --n 2 --k 4
2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 check --name recursion --n 0 --k 1
2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 check --name recursion --n 7 --k 1
2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 check --name recursion --n 1 --k 0
2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 check --name recursion --n 1 --k 8
2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 check --name recursion --n 2 --k 8
2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 check --name recursion --n 5 --k 4
2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 check --name limits-props --count 0
2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 check --name limits-props --count 10001
0 cb73a14c4cfa47cdddff12fc828d2681bef67ef0b4277be02213d43af89d2dd2 check --name a-oracle --k 6
"""


def _entries():
    for line in GOLDEN.splitlines():
        code, digest, *argv = line.split()
        yield int(code), digest, argv


def _run(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return code, hashlib.sha256(out.getvalue().encode()).hexdigest()


def test_cli_golden():
    mismatches = []
    for code, digest, argv in _entries():
        got = _run(argv)
        if got != (code, digest):
            mismatches.append("%s: exit %d, sha256 %s" % (" ".join(argv), *got))
    assert not mismatches, "\n".join(mismatches)


if __name__ == "__main__":
    for _, _, argv in _entries():
        print("%d %s %s" % (*_run(argv), " ".join(argv)))
